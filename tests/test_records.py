import csv
import io
from fractions import Fraction

from ntlab.records import (CSV_COLUMNS, SCHEMA_HEADER, VerificationRecord,
                           merge_records, records_to_csv)


def _sample():
    return [
        VerificationRecord(13, "b-check", 5, 5, True, ratio=0.25,
                           elapsed_ms=1.2345),
        VerificationRecord(7, "z-check", Fraction(1, 3), Fraction(1, 3), True),
        VerificationRecord(7, "a-check", -315, -245, False, detail="gap=70"),
    ]


def _rows(text):
    """The report's records as dicts keyed by column name."""
    head, body = text.split("\n", 1)
    assert head == SCHEMA_HEADER
    return list(csv.DictReader(io.StringIO(body)))


def test_merge_sorts_by_prime_then_name():
    merged = merge_records(_sample()[:1], _sample()[1:])
    assert [(r.p, r.name) for r in merged] == [
        (7, "a-check"), (7, "z-check"), (13, "b-check")]


def test_csv_layout():
    text = records_to_csv(merge_records(_sample()))
    lines = text.splitlines()
    assert lines[0] == SCHEMA_HEADER
    assert lines[1] == CSV_COLUMNS
    assert lines[2] == "7,a-check,-315,-245,false,,0.000,gap=70"
    assert lines[3] == "7,z-check,1/3,1/3,true,,0.000,"
    assert lines[4] == "13,b-check,5,5,true,0.25,1.234,"
    assert text.endswith("\n")
    rows = _rows(text)
    assert [r["elapsed_ms"] for r in rows] == ["0.000", "0.000", "1.234"]
    assert [r["detail"] for r in rows] == ["gap=70", "", ""]


def test_csv_reads_lhs_and_rhs_as_formatted():
    rows = _rows(records_to_csv(merge_records(_sample())))
    assert rows[0]["name"] == "a-check" and rows[0]["match"] == "false"
    assert [(r["lhs"], r["rhs"]) for r in rows] == [
        ("-315", "-245"), ("1/3", "1/3"), ("5", "5")]
    r = VerificationRecord(7, "x", 0.1 + 0.2, 1 / 3, False)
    [row] = _rows(records_to_csv([r]))
    assert row["lhs"] == "0.3"
    assert row["rhs"] == "0.333333333333"


def test_csv_round_trips_text_fields():
    # a field holding a comma, a quote or a newline is quoted, so each comes
    # back whole; a tuple lhs (as gamma_product_checks builds) prints with
    # commas
    recs = [
        VerificationRecord(7, "a", 1, 2, False,
                           detail='reading "b", then c=3, d\nnext'),
        VerificationRecord(7, "b", 1, 1, True, detail=""),
        VerificationRecord(7, "c", (True, True, True), "see detail", True,
                           detail="x=1 y=2"),
    ]
    rows = _rows(records_to_csv(recs))
    assert list(rows[0]) == CSV_COLUMNS.split(",")
    assert [(r["lhs"], r["rhs"], r["detail"]) for r in rows] == [
        ("1", "2", 'reading "b", then c=3, d\nnext'),
        ("1", "1", ""),
        ("(True, True, True)", "see detail", "x=1 y=2"),
    ]


def test_csv_round_trips_a_lone_carriage_return():
    # csv.writer quotes only the characters of its line terminator, and the
    # report's rows end in "\n": a field holding "\r" alone must be quoted
    # too, or csv.reader splits its row
    details = ["a\rb", "a\r\nb", "\r", "a\nb", "plain"]
    recs = [VerificationRecord(7, f"x{i}", "l\rl", 1, True, detail=d)
            for i, d in enumerate(details)]
    text = records_to_csv(recs)
    body = text.split("\n", 2)[2]
    assert body.startswith('7,x0,"l\rl",1,true,,0.000,"a\rb"\n7,x1,')
    rows = list(csv.reader(io.StringIO(body, newline="")))
    assert [row[2] for row in rows] == ["l\rl"] * len(details)
    assert [row[-1] for row in rows] == details


def test_float_formatting_is_stable():
    r = VerificationRecord(7, "x", 0.1 + 0.2, 0.3, False, ratio=1 / 3)
    text = records_to_csv([r])
    assert text.splitlines()[2] == "7,x,0.3,0.3,false,0.333333333333,0.000,"
    [row] = _rows(text)
    assert (row["ratio"], row["elapsed_ms"]) == ("0.333333333333", "0.000")


def test_csv_prints_none_bools_and_fractions_as_their_str():
    # csv.writer alone would write None as an empty field; the report
    # prints every lhs and rhs that is not a float as its str
    recs = [VerificationRecord(7, "a", None, False, False),
            VerificationRecord(7, "b", True, Fraction(1, 3), True),
            VerificationRecord(7, "c", Fraction(1, 3), None, False)]
    assert records_to_csv(recs).splitlines()[2:] == [
        "7,a,None,False,false,,0.000,",
        "7,b,True,1/3,true,,0.000,",
        "7,c,1/3,None,false,,0.000,",
    ]


def _csv_writer_report(records):
    """The report with every row written by csv.writer: the oracle of
    records_to_csv, which joins a row itself when no field needs quoting.
    csv.writer quotes a lone CR only when it is in the line terminator, so
    rows are written with "\r\n" and end in "\n"."""
    rows = []
    for p, name, lhs, rhs, match, ratio, ms, detail in records:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow((
            p, name,
            f"{lhs:.12g}" if isinstance(lhs, float) else str(lhs),
            f"{rhs:.12g}" if isinstance(rhs, float) else str(rhs),
            str(match).lower(), "" if ratio is None else f"{ratio:.12g}",
            f"{ms:.3f}", detail))
        rows.append(buf.getvalue()[:-2] + "\n")
    return f"{SCHEMA_HEADER}\n{CSV_COLUMNS}\n" + "".join(rows)


def test_joined_rows_match_the_csv_writer():
    # rows csv would write as joined and rows it quotes, side by side: each
    # of a comma, a double quote, CR, LF and CRLF in each of name, lhs, rhs
    # and detail, over float, None, Fraction, tuple and bool values
    values = [0.1 + 0.2, None, Fraction(-7, 3), (True, 2, "x"), False, -315,
              "plain", 2.5e-13]
    texts = ["a,b", 'say "x"', "a\rb", "a\nb", "a\r\nb", ",", '"', "\r\n"]
    recs = [VerificationRecord(7, f"r{i}", lhs, rhs, i % 2 == 0, ratio=ratio,
                               elapsed_ms=i / 7, detail=f"d{i}")
            for i, (lhs, rhs, ratio) in enumerate(
                (v, w, r) for v in values for w in values[::-1]
                for r in (None, 1 / 3))]
    for i, t in enumerate(texts):
        recs += [VerificationRecord(11, t, 1, 2, True, detail=f"n{i}"),
                 VerificationRecord(11, f"l{i}", t, 1.5, False),
                 VerificationRecord(11, f"r{i}", None, t, True, ratio=0.5),
                 VerificationRecord(11, f"d{i}", Fraction(1, 3), False,
                                    False, detail=t)]
    text = records_to_csv(recs)
    assert text == _csv_writer_report(recs)
    assert text.split("\n")[2] == "7,r0,0.3,2.5e-13,true,,0.000,d0"
    assert records_to_csv([]) == _csv_writer_report([])
