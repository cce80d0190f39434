"""Hurwitz class numbers via reduced-form enumeration, with a sieve-built
table, a CSV cache, and the Eichler / Cohen identities used as cross-checks.

Conventions. For D > 0 with -D a valid discriminant (D = 0 or 3 mod 4):
  h(D)       primitive class number of discriminant -D
  hfull(D)   all classes, imprimitive included: sum over f^2 | D of h(D/f^2)
  hstar12(D) 12 * H(D) where H is the Hurwitz class number: weights 1/3 for
             discriminant -3, 1/2 for -4, 1 otherwise; H(0) = -1/12.
Everything is exact integer or Fraction arithmetic.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from sympy import divisors

from .records import SCHEMA_HEADER

HURWITZ_COLUMNS = "D,h,hstar12,hfull"


def _valid_disc(D: int) -> bool:
    return D % 4 in (0, 3)


def class_number_h(D: int) -> int:
    """Primitive class number h(-D) by direct reduced-form enumeration.

    A reduced form (a, b, c) has |b| <= a <= c with b >= 0 whenever |b| = a
    or a = c, and gcd(a, b, c) = 1. Single-D oracle, O(D) time.
    """
    if D < 0:
        raise ValueError(f"discriminant parameter must be >= 0, got {D}")
    if D == 0 or not _valid_disc(D):
        return 0
    count = 0
    amax = math.isqrt(D // 3)
    for a in range(1, amax + 1):
        for b in range(a + 1):
            num = D + b * b
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            count += 1 if (b == 0 or b == a or a == c) else 2
    return count


@dataclass(frozen=True)
class HurwitzTable:
    bound: int
    h: np.ndarray
    hfull: np.ndarray
    hstar12: np.ndarray


def build_hurwitz_table(bound: int) -> HurwitzTable:
    """Sieve all reduced forms of discriminant -D for D <= bound in one pass.

    hfull comes straight from the sieve; h by inverting the conductor sum
    (increasing D, so smaller entries are already primitive); hstar12 by
    re-summing h with the CM weights.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    hfull = np.zeros(bound + 1, dtype=np.int64)
    amax = math.isqrt(bound // 3) if bound >= 3 else 0
    for a in range(1, amax + 1):
        for b in range(a + 1):
            cmax = (bound + b * b) // (4 * a)
            if cmax < a:
                continue
            cs = np.arange(a, cmax + 1, dtype=np.int64)
            D = 4 * a * cs - b * b
            keep = D >= 1
            D = D[keep]
            cs = cs[keep]
            if len(D) == 0:
                continue
            w = np.full(len(D), 1 if (b == 0 or b == a) else 2, dtype=np.int64)
            if cs[0] == a:
                w[0] = 1
            np.add.at(hfull, D, w)

    h = hfull.copy()
    for D in range(1, bound + 1):
        if not _valid_disc(D):
            continue
        f = 2
        while f * f <= D:
            if D % (f * f) == 0:
                h[D] -= h[D // (f * f)]
            f += 1

    hstar12 = np.zeros(bound + 1, dtype=np.int64)
    hstar12[0] = -1
    for D in range(1, bound + 1):
        if not _valid_disc(D):
            continue
        total = 0
        f = 1
        while f * f <= D:
            if D % (f * f) == 0:
                d = D // (f * f)
                weight = 4 if d == 3 else 6 if d == 4 else 12
                total += weight * h[d]
            f += 1
        hstar12[D] = total
    return HurwitzTable(bound, h, hfull, hstar12)


def _single_hstar12(D: int) -> int:
    total = 0
    f = 1
    while f * f <= D:
        if D % (f * f) == 0:
            d = D // (f * f)
            weight = 4 if d == 3 else 6 if d == 4 else 12
            total += weight * class_number_h(d)
        f += 1
    return total


def hurwitz_hstar12(D: int, table: HurwitzTable | None = None) -> int:
    """12 * H(D) as an exact integer; H*(0) = -1/12 gives -1."""
    if D < 0:
        raise ValueError(f"discriminant parameter must be >= 0, got {D}")
    if D == 0:
        return -1
    if not _valid_disc(D):
        return 0
    if table is not None and D <= table.bound:
        return int(table.hstar12[D])
    return _single_hstar12(D)


def hurwitz_rational(D: int, table: HurwitzTable | None = None) -> Fraction:
    """The Hurwitz class number H(D) itself, as a Fraction."""
    return Fraction(hurwitz_hstar12(D, table), 12)


def hurwitz_hfull(D: int, table: HurwitzTable | None = None) -> int:
    """Number of classes of all (primitive or not) forms of discriminant -D."""
    if D < 0:
        raise ValueError(f"discriminant parameter must be >= 0, got {D}")
    if D == 0 or not _valid_disc(D):
        return 0
    if table is not None and D <= table.bound:
        return int(table.hfull[D])
    total = 0
    f = 1
    while f * f <= D:
        if D % (f * f) == 0:
            total += class_number_h(D // (f * f))
        f += 1
    return total


def divisor_sums(n: int) -> tuple[int, Fraction, Fraction]:
    """(sigma_1(n), lambda_1(n), lambda_3(n)) with lambda_k = (1/2) sum min(d, n/d)^k."""
    ds = divisors(n)
    sigma1 = sum(ds)
    lam1 = Fraction(sum(min(d, n // d) for d in ds), 2)
    lam3 = Fraction(sum(min(d, n // d) ** 3 for d in ds), 2)
    return sigma1, lam1, lam3


def eichler_lhs(n: int, table: HurwitzTable | None = None) -> Fraction:
    """sum over s^2 <= n of H(n - s^2), for odd n > 0.

    When n is a perfect square the s = +-sqrt(n) terms contribute H(0) = -1/12.
    Must equal -lambda_1(n) + sigma_1(n)/3.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"n must be a positive odd integer, got {n}")
    smax = math.isqrt(n)
    total = 0
    for s in range(-smax, smax + 1):
        total += hurwitz_hstar12(n - s * s, table)
    return Fraction(total, 12)


def eichler_rhs(n: int) -> Fraction:
    sigma1, lam1, _ = divisor_sums(n)
    return -lam1 + Fraction(sigma1, 3)


def cohen_coefficient(ell: int, table: HurwitzTable | None = None) -> Fraction:
    """4 sum H(l - s^2) s^2 - l sum H(l - s^2) + lambda_3(l), for odd l > 0.

    Empirically zero for every odd l tried; treated as a reported quantity
    with the bound |c(l)| = O(l^(3/2)) rather than an assumed identity.
    """
    if ell <= 0 or ell % 2 == 0:
        raise ValueError(f"ell must be a positive odd integer, got {ell}")
    smax = math.isqrt(ell)
    sum_plain = 0
    sum_weighted = 0
    for s in range(-smax, smax + 1):
        h12 = hurwitz_hstar12(ell - s * s, table)
        sum_plain += h12
        sum_weighted += h12 * s * s
    _, _, lam3 = divisor_sums(ell)
    return Fraction(4 * sum_weighted - ell * sum_plain, 12) + lam3


# --- CSV cache -------------------------------------------------------------

def cache_dir() -> Path:
    return Path(os.environ.get("NTLAB_CACHE", ".ntlab-cache"))


def hurwitz_csv_path(directory: Path | None = None) -> Path:
    return (directory or cache_dir()) / "hurwitz.csv"


def write_hurwitz_csv(table: HurwitzTable, path: Path | None = None) -> Path:
    """Write the table through a temporary file and a rename, so a reader
    never sees a half-written cache."""
    path = path or hurwitz_csv_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [SCHEMA_HEADER, HURWITZ_COLUMNS]
    for D in range(table.bound + 1):
        lines.append(f"{D},{table.h[D]},{table.hstar12[D]},{table.hfull[D]}")
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def read_hurwitz_csv(path: Path | None = None) -> HurwitzTable:
    """Read a table written by write_hurwitz_csv; ValueError unless D runs
    0, 1, ..., bound with one row each."""
    path = path or hurwitz_csv_path()
    text = path.read_text().splitlines()
    if not text or text[0].strip() != SCHEMA_HEADER:
        raise ValueError(f"{path}: missing schema header {SCHEMA_HEADER!r}")
    if len(text) < 2 or text[1].strip() != HURWITZ_COLUMNS:
        raise ValueError(f"{path}: unexpected column header")
    rows = [tuple(int(v) for v in line.split(",")) for line in text[2:] if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    D, h, hstar12, hfull = np.array(rows, dtype=np.int64).T.copy()
    if not np.array_equal(D, np.arange(len(rows))):
        raise ValueError(f"{path}: D must run 0, 1, ..., bound with no gap "
                         "or repeat")
    return HurwitzTable(len(rows) - 1, h, hfull, hstar12)


def load_or_build(bound: int, directory: Path | None = None,
                  write: bool = True) -> HurwitzTable:
    """Serve from the CSV cache when it covers `bound`, else rebuild (and
    rewrite the cache, which is byte-deterministic for a given bound)."""
    path = hurwitz_csv_path(directory)
    if path.exists():
        try:
            cached = read_hurwitz_csv(path)
            if cached.bound >= bound:
                return cached
        except ValueError:
            pass
    table = build_hurwitz_table(bound)
    if write:
        write_hurwitz_csv(table, path)
    return table
