"""Verification records and their CSV / JSON emission.

Every check in the suite reduces to a (p, name, lhs, rhs, match) row so that
sweeps from different workers can be merged deterministically and diffed
across runs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

SCHEMA_HEADER = "# ntlab-schema v1"
CSV_COLUMNS = "p,name,lhs,rhs,match,ratio,elapsed_ms"


@dataclass(frozen=True)
class VerificationRecord:
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
    lines = [SCHEMA_HEADER, CSV_COLUMNS]
    for r in records:
        ratio = "" if r.ratio is None else f"{r.ratio:.12g}"
        lines.append(",".join([
            str(r.p), r.name, _fmt(r.lhs), _fmt(r.rhs),
            str(r.match).lower(), ratio, f"{r.elapsed_ms:.3f}",
        ]))
    return "\n".join(lines) + "\n"


def records_to_json(records) -> str:
    """The records as a JSON list; lhs and rhs are formatted as in the CSV."""
    rows = []
    for r in records:
        d = asdict(r)
        d["lhs"], d["rhs"] = _fmt(r.lhs), _fmt(r.rhs)
        rows.append(d)
    return json.dumps(rows, indent=1) + "\n"
