"""Verification records and their CSV report.

Every check in the suite reduces to a (p, name, lhs, rhs, match) row, with
its ratio, elapsed time and detail, so that sweeps from different workers
can be merged deterministically and diffed across runs.
"""

from __future__ import annotations

import csv
from operator import itemgetter
from types import SimpleNamespace
from typing import NamedTuple

SCHEMA_HEADER = "# ntlab-schema v2"
CSV_COLUMNS = "p,name,lhs,rhs,match,ratio,elapsed_ms,detail"


class VerificationRecord(NamedTuple):
    p: int
    name: str
    lhs: object
    rhs: object
    match: bool
    ratio: float | None = None
    elapsed_ms: float = 0.0
    detail: str = ""


def merge_records(*groups) -> list[VerificationRecord]:
    """Deterministic order regardless of worker scheduling."""
    out: list[VerificationRecord] = []
    for g in groups:
        out.extend(g)
    out.sort(key=itemgetter(0, 1))   # (p, name)
    return out


def records_to_csv(records) -> str:
    """The report: the schema line, the header and one row per record. A
    float prints to 12 significant digits and any other lhs or rhs as its
    str, None, a bool and a Fraction included. A field holding a comma, a
    double quote, a newline or a carriage return is quoted."""
    # csv quotes a field holding a comma, a double quote or a character of
    # the line terminator: rows are written with "\r\n", handed back by
    # write=str, and end in "\n". A joined line with seven commas and no
    # quote, CR or LF holds no such field, and csv would write it unchanged
    # (name and detail are str; csv alone would write None as "").
    row = csv.writer(SimpleNamespace(write=str),
                     lineterminator="\r\n").writerow
    lines = [SCHEMA_HEADER, CSV_COLUMNS]
    for p, name, lhs, rhs, match, ratio, ms, detail in records:
        lhs = f"{lhs:.12g}" if isinstance(lhs, float) else str(lhs)
        rhs = f"{rhs:.12g}" if isinstance(rhs, float) else str(rhs)
        match = str(match).lower()
        ratio = "" if ratio is None else f"{ratio:.12g}"
        ms = f"{ms:.3f}"
        line = f"{p},{name},{lhs},{rhs},{match},{ratio},{ms},{detail}"
        if line.count(",") != 7 or '"' in line or "\r" in line or "\n" in line:
            line = row((p, name, lhs, rhs, match, ratio, ms, detail))[:-2]
        lines.append(line)
    lines.append("")
    return "\n".join(lines)
