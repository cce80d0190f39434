"""Double-double arithmetic with tracked error bounds.

A double-double ("dd") number is an unevaluated sum hi + lo of two floats
carrying about 31 significant digits. The module provides vectorized dd
kernels over numpy arrays (enough for cosine tables, Kloosterman sweeps and
moment accumulation) plus the scalar CertifiedReal wrapper whose round
method refuses to produce an integer unless the tracked absolute error
bound is below 1/2.

Error model: every dd kernel below is accurate to a relative 2^-102 per
operation; the constant EPS_DD = 2^-100 is used as a conservative per-op
relative bound when propagating errors analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

EPS_DD = 2.0 ** -100
_SPLITTER = 134217729.0  # 2^27 + 1


class PrecisionError(ArithmeticError):
    """Raised when a certified bound is too large to round to an integer."""


# ---------------------------------------------------------------------------
# vectorized dd kernels (arrays of hi, lo)

def two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def quick_two_sum(a, b):
    # requires |a| >= |b| componentwise in exact arithmetic; the general
    # two_sum is used wherever that is not guaranteed
    s = a + b
    err = b - (s - a)
    return s, err


def split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    lo = a - hi
    return hi, lo


def two_prod(a, b):
    P = a * b
    ah, al = split(a)
    bh, bl = split(b)
    err = ((ah * bh - P) + ah * bl + al * bh) + al * bl
    return P, err


def dd_add(xh, xl, yh, yl):
    s, e = two_sum(xh, yh)
    e = e + (xl + yl)
    return quick_two_sum(s, e)


def dd_mul(xh, xl, yh, yl):
    P, e = two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return quick_two_sum(P, e)


def dd_mul_float(xh, xl, c):
    P, e = two_prod(xh, c)
    e = e + xl * c
    return quick_two_sum(P, e)


def dd_sum(hi: np.ndarray, lo: np.ndarray) -> tuple[float, float]:
    """Sum a vector of dd numbers by pairwise (binary tree) reduction."""
    hi = np.asarray(hi, dtype=np.float64)
    lo = np.asarray(lo, dtype=np.float64)
    n = hi.size
    if n == 0:
        return 0.0, 0.0
    while n > 1:
        half = n // 2
        h2, l2 = dd_add(hi[:half], lo[:half], hi[half:2 * half], lo[half:2 * half])
        if n % 2:
            # carry the odd element into slot 0
            h0, l0 = dd_add(h2[:1], l2[:1], hi[n - 1:n], lo[n - 1:n])
            h2[:1], l2[:1] = h0, l0
        hi, lo = h2, l2
        n = half
    return float(hi[0]), float(lo[0])


def dd_from_mpf(v) -> tuple[float, float]:
    hi = float(v)
    lo = float(v - mpmath.mpf(hi))
    return hi, lo


# ---------------------------------------------------------------------------
# certified scalar values

@dataclass(frozen=True)
class CertifiedReal:
    """A real number known to lie within err of value (absolute bound)."""

    value: float
    err: float

    def __post_init__(self):
        if self.err < 0 or not math.isfinite(self.err):
            raise ValueError(f"invalid error bound {self.err}")

    def __add__(self, other: "CertifiedReal") -> "CertifiedReal":
        v = self.value + other.value
        slack = abs(v) * 2 ** -52 + 5e-324
        return CertifiedReal(v, self.err + other.err + slack)

    def __sub__(self, other: "CertifiedReal") -> "CertifiedReal":
        v = self.value - other.value
        slack = abs(v) * 2 ** -52 + 5e-324
        return CertifiedReal(v, self.err + other.err + slack)

    def __mul__(self, other: "CertifiedReal") -> "CertifiedReal":
        v = self.value * other.value
        cross = (abs(self.value) * other.err + abs(other.value) * self.err
                 + self.err * other.err)
        slack = abs(v) * 2 ** -52 + 5e-324
        return CertifiedReal(v, cross + slack)

    def round_to_integer(self) -> int:
        if self.err >= 0.5:
            bits = max(1, math.ceil(math.log2(self.err / 0.5)))
            raise PrecisionError(
                f"insufficient precision: error bound {self.err:.3g} >= 1/2 "
                f"(need about {bits} more bits)")
        n = round(self.value)
        if abs(self.value - n) + self.err >= 0.5:
            raise PrecisionError(
                f"value {self.value} not within certified 1/2 of an integer "
                f"(err {self.err:.3g})")
        return int(n)


# ---------------------------------------------------------------------------
# certified cosine tables

def cos_table(p: int) -> tuple[np.ndarray, np.ndarray, float]:
    """cos(2*pi*k/p) for k = 0..p-1 as dd arrays plus a per-entry error bound.

    Baby-step giant-step: mpmath seeds cos/sin at ~50 digits on two coarse
    grids, the remaining entries come from one dd angle addition each, so the
    per-entry absolute error stays below 1e-30.
    """
    m = max(1, math.isqrt(p))
    n_giant = p // m + 1
    with mpmath.workdps(50):
        tau = 2 * mpmath.pi / p
        cb = [dd_from_mpf(mpmath.cos(tau * j)) for j in range(m)]
        sb = [dd_from_mpf(mpmath.sin(tau * j)) for j in range(m)]
        cg = [dd_from_mpf(mpmath.cos(tau * m * i)) for i in range(n_giant)]
        sg = [dd_from_mpf(mpmath.sin(tau * m * i)) for i in range(n_giant)]
    cb_h = np.array([c[0] for c in cb]); cb_l = np.array([c[1] for c in cb])
    sb_h = np.array([c[0] for c in sb]); sb_l = np.array([c[1] for c in sb])
    k = np.arange(p)
    gi = k // m
    bj = k - gi * m
    cgh = np.array([cg[i][0] for i in range(n_giant)])[gi]
    cgl = np.array([cg[i][1] for i in range(n_giant)])[gi]
    sgh = np.array([sg[i][0] for i in range(n_giant)])[gi]
    sgl = np.array([sg[i][1] for i in range(n_giant)])[gi]
    # cos(a+b) = cos a cos b - sin a sin b
    t1h, t1l = dd_mul(cgh, cgl, cb_h[bj], cb_l[bj])
    t2h, t2l = dd_mul(sgh, sgl, sb_h[bj], sb_l[bj])
    hi, lo = dd_add(t1h, t1l, -t2h, -t2l)
    # seeds good to ~1e-31 absolute; three dd ops add ~2^-100 relative each
    per_term_err = 1e-30
    return hi, lo, per_term_err
