"""Kloosterman sums and their power moments with certified integer rounding.

All heavy sums run over dd (double-double) cosine tables; every reported
moment is an exact integer obtained through CertifiedReal.round_to_integer,
so a precision shortfall raises instead of silently truncating. Default
table precision leaves orders of magnitude of headroom for p <= 5000 and
moments up to n = 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ddreal import (EPS_DD, CertifiedReal, cos_table, dd_add, dd_mul,
                     dd_mul_float, dd_sum)
from .ffield import CharIdx, FieldCtx

_CHUNK = 256  # rows of the (a, x) sweep processed at once


@dataclass(frozen=True)
class MomentResult:
    p: int
    n: int
    twist: CharIdx | None
    value: int


class CosTable:
    """Per-prime dd table of cos(2*pi*k/p) with its error budget."""

    def __init__(self, ctx: FieldCtx):
        self.p = ctx.p
        self.hi, self.lo, self.per_term_err = cos_table(ctx.p)
        inv = [0] * ctx.p
        for x in range(1, ctx.p):
            inv[x] = pow(x, ctx.p - 2, ctx.p)
        self.xinv = np.array(inv, dtype=np.int64)


def _ensure_table(ctx: FieldCtx, table: CosTable | None) -> CosTable:
    if table is None:
        table = CosTable(ctx)
    if table.p != ctx.p:
        raise ValueError("cosine table belongs to a different prime")
    return table


def kloosterman_sum(ctx: FieldCtx, a: int, table: CosTable | None = None) -> CertifiedReal:
    """K(a,p) = sum over x != 0 of cos(2*pi*(x + a/x)/p), certified."""
    p = ctx.p
    a %= p
    if a == 0:
        return CertifiedReal(-1.0, 0.0)
    table = _ensure_table(ctx, table)
    x = np.arange(1, p, dtype=np.int64)
    idx = (x + a * table.xinv[1:]) % p
    hi, lo = dd_sum(table.hi[idx], table.lo[idx])
    err = (p - 1) * table.per_term_err + p * math.log2(p + 1) * EPS_DD * 4
    # collapsing the dd pair to one double costs an extra half ulp
    return CertifiedReal(hi, err) + CertifiedReal(lo, 0.0)


def kloosterman_sum_via_quadric(ctx: FieldCtx, a: int,
                                table: CosTable | None = None) -> CertifiedReal:
    """Second route: K(a,p) = sum over v of phi(v^2 - 4a) cos(2*pi*v/p).

    Counting solutions of x + a/x = v gives 1 + phi(v^2-4a) values of x,
    and the constant 1 sums to zero over a full period.
    """
    p = ctx.p
    a %= p
    if a == 0:
        return CertifiedReal(-1.0, 0.0)
    table = _ensure_table(ctx, table)
    v = np.arange(p, dtype=np.int64)
    w = np.array(ctx.qr, dtype=np.float64)[(v * v - 4 * a) % p]
    hi, lo = dd_mul_float(table.hi, table.lo, w)
    shi, slo = dd_sum(hi, lo)
    err = p * table.per_term_err + p * math.log2(p + 1) * EPS_DD * 4
    return CertifiedReal(shi, err) + CertifiedReal(slo, 0.0)


def kloosterman_table(ctx: FieldCtx, table: CosTable | None = None):
    """All K(a,p) for a = 0..p-1 as dd arrays plus a uniform error bound."""
    p = ctx.p
    table = _ensure_table(ctx, table)
    Kh = np.empty(p)
    Kl = np.empty(p)
    Kh[0], Kl[0] = -1.0, 0.0
    x = np.arange(1, p, dtype=np.int64)
    xinv = table.xinv[1:]
    for start in range(1, p, _CHUNK):
        stop = min(start + _CHUNK, p)
        a = np.arange(start, stop, dtype=np.int64)
        idx = (x[None, :] + a[:, None] * xinv[None, :]) % p
        hi = table.hi[idx]
        lo = table.lo[idx]
        # pairwise tree reduction along x, vectorized over the a-chunk
        n = hi.shape[1]
        while n > 1:
            half = n // 2
            h2, l2 = dd_add(hi[:, :half], lo[:, :half],
                            hi[:, half:2 * half], lo[:, half:2 * half])
            if n % 2:
                h0, l0 = dd_add(h2[:, :1], l2[:, :1], hi[:, n - 1:n], lo[:, n - 1:n])
                h2[:, :1], l2[:, :1] = h0, l0
            hi, lo = h2, l2
            n = half
        Kh[start:stop] = hi[:, 0]
        Kl[start:stop] = lo[:, 0]
    err = (p - 1) * table.per_term_err + p * math.log2(p + 1) * EPS_DD * 4
    return Kh, Kl, err


def _power_dd(Kh, Kl, n: int):
    """Componentwise K^n for n in 1..4 with an error growth factor."""
    if n == 1:
        return Kh, Kl
    h2, l2 = dd_mul(Kh, Kl, Kh, Kl)
    if n == 2:
        return h2, l2
    if n == 3:
        return dd_mul(h2, l2, Kh, Kl)
    if n == 4:
        return dd_mul(h2, l2, h2, l2)
    raise ValueError(f"moment order {n} out of the certified range 1..4")


def _moment_err(p: int, n: int, err_k: float) -> float:
    kmax = 2.0 * math.sqrt(p) + 1.0
    per_a = n * kmax ** (n - 1) * err_k * 1.01 + 4 * n * EPS_DD * kmax ** n
    return p * per_a + p * kmax ** n * math.log2(p + 1) * EPS_DD * 4


def untwisted_moment(ctx: FieldCtx, n: int, precomputed=None) -> MomentResult:
    """S(n)_p = sum over a in F_p^* of K(a,p)^n, certified exact."""
    p = ctx.p
    Kh, Kl, err_k = precomputed if precomputed is not None else kloosterman_table(ctx)
    Ph, Pl = _power_dd(Kh, Kl, n)
    hi, lo = dd_sum(Ph[1:], Pl[1:])
    total = CertifiedReal(hi, _moment_err(p, n, err_k)) + CertifiedReal(lo, 0.0)
    return MomentResult(p, n, None, total.round_to_integer())


def twisted_moment(ctx: FieldCtx, n: int, twist: CharIdx,
                   precomputed=None) -> MomentResult:
    """S(n,chi)_p for the trivial or quadratic twist (the exact-integer cases)."""
    p = ctx.p
    if twist % (p - 1) not in (0, (p - 1) // 2):
        raise ValueError("unsupported twist: only the trivial and quadratic "
                         "characters give rational integer moments here")
    if twist % (p - 1) == 0:
        return untwisted_moment(ctx, n, precomputed)
    Kh, Kl, err_k = precomputed if precomputed is not None else kloosterman_table(ctx)
    Ph, Pl = _power_dd(Kh, Kl, n)
    w = np.array(ctx.qr, dtype=np.float64)
    hi, lo = dd_sum(Ph * w, Pl * w)
    total = CertifiedReal(hi, _moment_err(p, n, err_k)) + CertifiedReal(lo, 0.0)
    return MomentResult(p, n, twist, total.round_to_integer())


def sheaf_moment(ctx: FieldCtx, n: int, precomputed=None) -> int:
    """M(n,phi)_p via the h-recursion h_k = -K h_{k-1} - p h_{k-2}."""
    p = ctx.p
    Kh, Kl, err_k = precomputed if precomputed is not None else kloosterman_table(ctx)
    hm2 = (np.ones(p), np.zeros(p))            # h_0
    hm1 = (-Kh, -Kl)                            # h_1
    for _ in range(n - 1):
        th, tl = dd_mul(-Kh, -Kl, hm1[0], hm1[1])
        sh, sl = dd_mul_float(hm2[0], hm2[1], -float(p))
        hm2, hm1 = hm1, dd_add(th, tl, sh, sl)
    w = np.array(ctx.qr, dtype=np.float64)
    hi, lo = dd_sum(hm1[0] * w, hm1[1] * w)
    # the recursion at depth n amplifies err_k by at most n * (3 sqrt(p))^(n-1)
    kmax = 3.0 * math.sqrt(p) + 1.0
    per_a = n * kmax ** (n - 1) * err_k * 1.01 + 8 * n * EPS_DD * kmax ** n
    err = p * per_a + p * kmax ** n * math.log2(p + 1) * EPS_DD * 4
    total = CertifiedReal(hi, err) + CertifiedReal(lo, 0.0)
    return total.round_to_integer()


def angle_histogram(ctx: FieldCtx, bins: int, precomputed=None) -> np.ndarray:
    """Histogram over [0, pi] of the angles arccos(K(a,p)/(2 sqrt p)), a != 0."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    Kh, Kl, _ = precomputed if precomputed is not None else kloosterman_table(ctx)
    vals = (Kh + Kl)[1:] / (2.0 * math.sqrt(ctx.p))
    theta = np.arccos(np.clip(vals, -1.0, 1.0))
    counts, _ = np.histogram(theta, bins=bins, range=(0.0, math.pi))
    return counts


def semicircle_chisq(counts: np.ndarray) -> float:
    """Chi-square distance of an angle histogram to the semicircle law."""
    bins = len(counts)
    total = counts.sum()
    edges = np.linspace(0.0, math.pi, bins + 1)
    # semicircle density (2/pi) sin^2 t integrates over [a,b] to
    # (b - a)/pi - (sin 2b - sin 2a)/(2 pi)
    cdf = edges / math.pi - np.sin(2 * edges) / (2 * math.pi)
    expected = np.diff(cdf) * total
    return float(np.sum((counts - expected) ** 2 / np.maximum(expected, 1e-12)))


def symmetric_moment_rhs(ctx: FieldCtx, m: int, cap: int = 200) -> int:
    """p phi(-1) sum over nonzero x_1..x_m of phi(sum x_i + 1) phi(sum 1/x_i + 1).

    Opening up K(a)^(m+1) and summing the geometric series in a shows this
    equals S(m+1, phi)_p, which makes it an exact integer-only counterweight
    to the certified floating point route. The joint distribution of
    (sum x_i, sum 1/x_i) is built by m-1 cyclic convolutions, so the cost
    is O(p^3) for m = 3.
    """
    p = ctx.p
    if m not in (1, 2, 3):
        raise ValueError("m must be 1, 2 or 3")
    if p > cap:
        raise ValueError(f"brute-force cap exceeded: p={p} > {cap}")
    qr = np.array(ctx.qr, dtype=np.int64)
    base = np.zeros((p, p), dtype=np.int64)
    for x in range(1, p):
        base[x][pow(x, p - 2, p)] += 1
    dist = base
    for _ in range(m - 1):
        nxt = np.zeros_like(dist)
        for x in range(1, p):
            nxt += np.roll(np.roll(dist, x, axis=0), pow(x, p - 2, p), axis=1)
        dist = nxt
    u = (np.arange(p)[:, None] + 1) % p
    v = (np.arange(p)[None, :] + 1) % p
    total = int(np.sum(dist * qr[u] * qr[v]))
    return p * ctx.qr[p - 1] * total


def closed_forms(p: int) -> dict[str, int]:
    """The closed-form moment values used by the verification suites.

    S4 is the commonly quoted form; S4corrected is what the sums actually
    equal (the two differ by exactly 3p, see README).
    """
    return {
        "S1": 1,
        "S2": p * p - p - 1,
        "S4": 2 * p ** 3 - 3 * p ** 2 - 1,
        "S4corrected": 2 * p ** 3 - 3 * p ** 2 - 3 * p - 1,
        "S2phi": -p,
    }


def s3_empirical_fit(s3_values: dict[int, int]) -> dict:
    """Fit S(3)_p against c3(p) p^2 + 2p + 1 with c3(p) the quadratic character
    of p mod 3, and report residuals. The printed closed form for S(3) is
    garbled at the constant term, so the fit is reported, never assumed.
    """
    rows = []
    ok = True
    for p, s3 in sorted(s3_values.items()):
        c3 = 1 if p % 3 == 1 else -1
        resid = s3 - (c3 * p * p + 2 * p + 1)
        rows.append({"p": p, "S3": s3, "residual": resid})
        ok = ok and resid == 0
    return {"formula": "S(3)_p = (p|3) p^2 + 2p + 1", "exact": ok, "rows": rows}
