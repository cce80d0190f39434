"""Verification records and their CSV report.

Every check in the suite reduces to a (p, name, lhs, rhs, match) row, with
its ratio, elapsed time and detail, so that sweeps from different workers
can be merged deterministically and diffed across runs.
"""

from __future__ import annotations

import csv
import io
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
    out.sort(key=lambda r: (r.p, r.name))
    return out


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def records_to_csv(records) -> str:
    """The report: the schema line, the header and one row per record. A
    field holding a comma, a double quote or a newline is quoted."""
    buf = io.StringIO()
    buf.write(f"{SCHEMA_HEADER}\n{CSV_COLUMNS}\n")
    csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n").writerows(
        (r.p, r.name, _fmt(r.lhs), _fmt(r.rhs), str(r.match).lower(),
         "" if r.ratio is None else f"{r.ratio:.12g}", f"{r.elapsed_ms:.3f}",
         r.detail)
        for r in records)
    return buf.getvalue()
