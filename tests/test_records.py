import json
from fractions import Fraction

from ntlab.records import (CSV_COLUMNS, SCHEMA_HEADER, VerificationRecord,
                           merge_records, records_to_csv, records_to_json)


def _sample():
    return [
        VerificationRecord(13, "b-check", 5, 5, True, ratio=0.25,
                           elapsed_ms=1.2345),
        VerificationRecord(7, "z-check", Fraction(1, 3), Fraction(1, 3), True),
        VerificationRecord(7, "a-check", -315, -245, False, detail="gap=70"),
    ]


def test_merge_sorts_by_prime_then_name():
    merged = merge_records(_sample()[:1], _sample()[1:])
    assert [(r.p, r.name) for r in merged] == [
        (7, "a-check"), (7, "z-check"), (13, "b-check")]


def test_csv_layout():
    text = records_to_csv(merge_records(_sample()))
    lines = text.splitlines()
    assert lines[0] == SCHEMA_HEADER
    assert lines[1] == CSV_COLUMNS
    assert lines[2] == "7,a-check,-315,-245,false,,0.000"
    assert lines[3] == "7,z-check,1/3,1/3,true,,0.000"
    assert lines[4] == "13,b-check,5,5,true,0.25,1.234"
    assert text.endswith("\n")


def test_write_csv_and_json():
    recs = merge_records(_sample())
    rows = json.loads(records_to_json(recs))
    assert len(rows) == 3
    assert set(rows[0]) >= {"p", "name", "lhs", "rhs", "match"}
    assert rows[0]["name"] == "a-check" and rows[0]["match"] is False
    # lhs and rhs read exactly as in the CSV, floats included
    csv_rows = [ln.split(",") for ln in records_to_csv(recs).splitlines()[2:]]
    assert [[r["lhs"], r["rhs"]] for r in rows] == [c[2:4] for c in csv_rows]
    r = VerificationRecord(7, "x", 0.1 + 0.2, 1 / 3, False)
    assert json.loads(records_to_json([r]))[0]["lhs"] == "0.3"
    assert json.loads(records_to_json([r]))[0]["rhs"] == "0.333333333333"


def test_float_formatting_is_stable():
    r = VerificationRecord(7, "x", 0.1 + 0.2, 0.3, False, ratio=1 / 3)
    line = records_to_csv([r]).splitlines()[2]
    assert line == "7,x,0.3,0.3,false,0.333333333333,0.000"
