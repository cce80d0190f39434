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
    # csv quotes a field holding a character of the line terminator: rows
    # are written with "\r\n", handed back by write=str, and end in "\n"
    row = csv.writer(SimpleNamespace(write=str),
                     lineterminator="\r\n").writerow
    return f"{SCHEMA_HEADER}\n{CSV_COLUMNS}\n" + "".join(
        row((p, name,
             f"{lhs:.12g}" if isinstance(lhs, float) else str(lhs),
             f"{rhs:.12g}" if isinstance(rhs, float) else str(rhs),
             str(match).lower(), "" if ratio is None else f"{ratio:.12g}",
             f"{ms:.3f}", detail))[:-2] + "\n"
        for p, name, lhs, rhs, match, ratio, ms, detail in records)
