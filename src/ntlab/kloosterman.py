"""Kloosterman sums and their power moments, exact in fixed point.

Everything runs on integers, on the stdlib alone. A trig table holds cos
of 2 pi k/p scaled by 2^L and rounded, each entry within 1/2 + 2^-20
units: one chain of rotations by e^(2 pi i/p) at 48 guard bits (pi by
Machin's formula, e^(i t) by Taylor's series) gives k <= p/2, and symmetry
gives the rest. Counting the points of the quadric
x^2 - vx + a = 0, K(a,p) is a sum of phi(u^2 - a) cos(4 pi u/p) over u, so
the whole table of K(a,p) is one cyclic convolution over Z/p
(ffield.cyclic_convolve: the cosines gathered by u^2 times phi, as Python
ints below p ~ 1000 and as long decimals by libmpdec's number-theoretic
transform above, folded mod p), at the trig table's own scale.
Moments are exact integer combinations of the power sums of that table,
taken in one vectorised pass per prime, and every one of them passes through
round_fixed, which returns an integer only when an integer error bound
proves it; a precision shortfall raises PrecisionError instead of silently
truncating. L grows with p, so the headroom does not shrink as p grows.
trig_table, kloosterman_table and the power sums are per_prime builders.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import mul, not_
from typing import NamedTuple

from .ffield import CharIdx, FieldCtx, cyclic_convolve, per_prime

# symmetric_moment_rhs convolves tables of p(2p-1) entries only up to here
SYMMETRIC_CAP = 200


class PrecisionError(ArithmeticError):
    """Raised when a certified bound is too large to round to an integer."""


class CertifiedReal(NamedTuple):
    """A real number known to lie within err of value (absolute bound)."""

    value: float
    err: float


def round_fixed(num: int, shift: int, err: int) -> int:
    """The integer m nearest num / 2^shift, where the true value lies within
    err / 2^shift of it. Raises PrecisionError unless
    |num / 2^shift - m| + err / 2^shift < 1/2, so m is certified."""
    one = 1 << shift
    if 2 * err >= one:
        raise PrecisionError(
            f"insufficient precision: error bound {err / one:.3g} >= 1/2 "
            f"(need about {(2 * err).bit_length() - shift} more bits)")
    m = (2 * num + one) >> (shift + 1)
    if 2 * (abs(num - m * one) + err) >= one:
        raise PrecisionError(
            f"value {num / one} not within certified 1/2 of an integer "
            f"(err {err / one:.3g})")
    return m


# ---------------------------------------------------------------------------
# the trig table, shared by both routes to K(a,p)

class TrigTable(NamedTuple):
    """cos[k] is 2^bits cos(2 pi k/p), k = 0..p-1, rounded to an integer
    within 1/2 + 2^-20 units."""

    p: int
    bits: int
    cos: tuple[int, ...]


def _arctan_inv(x: int, one: int) -> int:
    """one * arctan(1/x) for an integer x > 1 by its series, each term
    truncated, so within two units per term."""
    power = one // x
    total, k, x2 = power, 1, x * x
    while power:
        power //= x2
        k += 2
        total += (power // k) if k % 4 == 1 else -(power // k)
    return total


def _expi(theta: int, w: int) -> tuple[int, int]:
    """2^w (cos, sin) of theta / 2^w from one Taylor series, each term
    truncated toward zero; the terms run until one is zero."""
    one = 1 << w
    c, s, term, k = one, 0, one, 0
    while term:
        k += 1
        term = term * theta // (k << w)
        if k % 2:
            s += term if k % 4 == 1 else -term
        else:
            c += term if k % 4 == 0 else -term
    return c, s


def _rotations(step: tuple[int, int], count: int, w: int,
               bits: int) -> list[int]:
    """2^bits cos(i theta), i = 0..count-1, rounded, where step is
    2^w (cos, sin) of theta: repeated complex rotation at w bits, which
    carries both coordinates, though only the cosine is kept."""
    drop = w - bits
    half_w, half_s = 1 << (w - 1), 1 << (drop - 1)
    dc, ds = step
    x, y = 1 << w, 0
    cs = []
    for _ in range(count):
        cs.append((x + half_s) >> drop)
        x, y = (x * dc - y * ds + half_w) >> w, (x * ds + y * dc + half_w) >> w
    return cs


@per_prime
def trig_table(p: int) -> TrigTable:
    """One rotation chain: e^(i k tau), tau = 2 pi/p, for k = 0..p//2 by
    repeated rotation at w = bits + 48 bits, each value rounded to
    2^-bits; the other half mirrors it, cos(2 pi (p-k)/p) = cos(2 pi k/p).

    pi comes from Machin's formula and is within 2^11 units of 2^-w, so
    tau = 2 pi // p is within 1 + 2^12/p units and k tau, k <= p/2, within
    p/2 + 2^11; e^(i tau) by one Taylor series, and each of the p//2
    rotations, add a few dozen units more. For p < 2^22 that stays below
    2^28 units of 2^-w, so every entry is within 1/2 + 2^-20 units of
    2^-bits. 2^bits > 2^20 p^4 keeps the error bound of a fourth moment
    about 2^14 sqrt(p) times below its rounding margin, and by the Weil
    bound that of S(6) below it for every p < 2^22. Past 2^22 the
    bound is unproven, so a larger p raises ValueError before any work.
    """
    if p >= 1 << 22:
        raise ValueError(f"trig_table is certified only for p < 2^22: {p}")
    bits = 4 * p.bit_length() + 20
    w = bits + 48
    pi = 16 * _arctan_inv(5, 1 << w) - 4 * _arctan_inv(239, 1 << w)
    cos = _rotations(_expi(2 * pi // p, w), p // 2 + 1, w, bits)
    cos += cos[(p - 1) // 2:0:-1]
    return TrigTable(p, bits, tuple(cos))


def _certify(num: int, bits: int, terms: int) -> CertifiedReal:
    """num / 2^bits as a float, num being a sum of `terms` table entries.

    The float is correctly rounded, which costs half an ulp; one spare unit
    of 2^-bits absorbs the rounding of err itself.
    """
    value = num / (1 << bits)
    return CertifiedReal(value, (terms + 1) / (1 << bits) + abs(value) * 2.0 ** -52)


def kloosterman_sum(ctx: FieldCtx, a: int) -> CertifiedReal:
    """K(a,p) = sum over x != 0 of cos(2*pi*(x + a/x)/p), certified."""
    p = ctx.p
    a %= p
    if a == 0:
        return CertifiedReal(-1.0, 0.0)
    table = trig_table(p)
    num = sum(table.cos[(x + a * pow(x, -1, p)) % p] for x in range(1, p))
    return _certify(num, table.bits, p - 1)


def kloosterman_sum_via_quadric(ctx: FieldCtx, a: int) -> CertifiedReal:
    """Second route: K(a,p) = sum over v of phi(v^2 - 4a) cos(2*pi*v/p).

    Counting solutions of x + a/x = v gives 1 + phi(v^2-4a) values of x,
    and the constant 1 sums to zero over a full period.
    """
    p = ctx.p
    a %= p
    if a == 0:
        return CertifiedReal(-1.0, 0.0)
    table = trig_table(p)
    num = sum(ctx.qr[(v * v - 4 * a) % p] * table.cos[v] for v in range(p))
    return _certify(num, table.bits, p)


# ---------------------------------------------------------------------------
# the whole table as one convolution

@per_prime
def kloosterman_table(ctx: FieldCtx) -> tuple[tuple[int, ...], int, int]:
    """All K(a,p), a = 0..p-1, as (K, shift, err): K[a] is an integer within
    err of 2^shift K(a,p).

    Counting the x with x + a/x = v gives K(a,p) as the sum over v of
    phi(v^2 - 4a) cos(2 pi v/p), kloosterman_sum_via_quadric's sum at one
    a, and with v = 2u as the sum over u of phi(u^2 - a) cos(4 pi u/p).
    Gather u by s = u^2 mod p: m(0) = C[0] and m(u^2) = 2 C[2u] for
    0 < u < p/2, since u and p - u give C[2u] and C[p - 2u], which the
    table's mirrored halves make equal. Then K(a) = sum over s of
    m(s) phi(s - a) = phi(-1) (m*phi)(a), cyclic over Z/p: one
    cyclic_convolve of phi(-1) m with ctx.qr, in slots of about
    L + bitlen(p) + 3 bits. cyclic_convolve and ctx.qr are all this table
    shares with ap_table.

    C[0] is 2^L exactly and every other m(s) is within 1 + 2^-19 units of
    2^-L; at most (p-1)/2 of them meet phi(s - a) != 0, so K[a] is within
    (p-1)/2 + (p-1) 2^-20 < (p-1)/2 + 4 units for p < 2^22. K[0] = -2^L
    is exact.
    """
    p = ctx.p
    table = trig_table(p)
    L, C = table.bits, table.cos
    sign = ctx.qr[-1]   # phi(-1)
    m = [0] * p
    m[0] = sign * C[0]
    for u in range(1, (p + 1) // 2):
        m[u * u % p] = 2 * sign * C[2 * u]
    w = cyclic_convolve(m, ctx.qr)
    return (-(1 << L), *w[1:]), L, (p - 1) // 2 + 4


# ---------------------------------------------------------------------------
# moments

@per_prime
def _power_sums(ctx: FieldCtx, n: int) -> tuple[tuple[int, ...],
                                                 tuple[int, ...], int]:
    """(P, M, kabs): P[j] and M[j] are the sums of K~(a)^j, j = 0..n, over
    the a != 0 with phi(a) = +1 and phi(a) = -1, and kabs = max |K~(a)|.

    One vectorised pass over the table: compress splits it by phi, and each
    degree is one map(mul) of the last by the first and one sum, so no list
    of big integers joins the shared tables; every moment of degree up to n
    reads it.
    """
    K = kloosterman_table(ctx)[0][1:]
    plus = [q > 0 for q in ctx.qr[1:]]

    def sums(ks: list[int]) -> tuple[int, ...]:
        out, x = [len(ks), sum(ks)], ks
        for _ in range(n - 1):
            x = list(map(mul, x, ks))
            out.append(sum(x))
        return tuple(out)

    return (sums(list(compress(K, plus))),
            sums(list(compress(K, map(not_, plus)))), max(map(abs, K)))


def _moment(ctx: FieldCtx, coeffs: list[int], twisted: bool) -> int:
    """sum over a != 0 of H(K~(a)), times phi(a) if twisted, rounded. H has
    the integer coefficients coeffs (lowest degree first) and is homogeneous
    of degree n = len(coeffs) - 1 at the table's scale.

    The sum is exact: sum c_j (P_j +- M_j) over the power sums of the table
    (_power_sums, built once per prime at degree max(n, 4), so the moments
    the suites use share it). Per a, the error is at most max |H'| on
    [-Kmax, Kmax] times err, which is at most sum j |c_j| Kmax^(j-1) err
    with Kmax = max |K~| + err; no Weil bound is assumed.
    """
    p = ctx.p
    _, shift, err = kloosterman_table(ctx)
    n = len(coeffs) - 1
    P, M, kabs = _power_sums(ctx, max(n, 4))
    kmax = kabs + err
    slope = sum(j * abs(c) * kmax ** (j - 1)
                for j, c in enumerate(coeffs) if j)
    sign = -1 if twisted else 1
    total = sum(c * (P[j] + sign * M[j]) for j, c in enumerate(coeffs))
    return round_fixed(total, n * shift, (p - 1) * slope * err)


def _power(n: int) -> list[int]:
    """The coefficients of x^n."""
    if n < 1:
        raise ValueError(f"moment order must be >= 1, got {n}")
    return [0] * n + [1]


def untwisted_moment(ctx: FieldCtx, n: int) -> int:
    """S(n)_p = sum over a in F_p^* of K(a,p)^n, certified exact."""
    return _moment(ctx, _power(n), False)


def twisted_moment(ctx: FieldCtx, n: int, twist: CharIdx) -> int:
    """S(n,chi)_p for the trivial or quadratic twist (the exact-integer cases)."""
    p = ctx.p
    if twist % (p - 1) not in (0, (p - 1) // 2):
        raise ValueError("unsupported twist: only the trivial and quadratic "
                         "characters give rational integer moments here")
    if twist % (p - 1) == 0:
        return untwisted_moment(ctx, n)
    return _moment(ctx, _power(n), True)


def sheaf_moment(ctx: FieldCtx, n: int) -> int:
    """M(n,phi)_p = sum over a of phi(a) h_n(K(a,p)), where h_0 = 1,
    h_1 = -K and h_k = -K h_{k-1} - p h_{k-2}.

    The recursion runs on the coefficients of h_k homogenized to the
    table's scale 2^shift (the p term gains 2^(2 shift)), so they stay
    integers and h_n(K~) is exact at scale 2^(n shift).
    """
    if n < 1:
        raise ValueError(f"moment order must be >= 1, got {n}")
    p = ctx.p
    lift = p << 2 * kloosterman_table(ctx)[1]
    prev, cur = [1], [0, -1]
    for _ in range(n - 1):
        nxt = [0] + [-c for c in cur]
        for j, c in enumerate(prev):
            nxt[j] -= lift * c
        prev, cur = cur, nxt
    return _moment(ctx, cur, True)


def angle_histogram(ctx: FieldCtx, bins: int) -> list[int]:
    """Histogram over [0, pi] of the angles arccos(K(a,p)/(2 sqrt p)), a != 0."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    K, shift, _ = kloosterman_table(ctx)
    one = 1 << shift
    scale = 2.0 * math.sqrt(ctx.p)
    counts = [0] * bins
    for k in K[1:]:
        theta = math.acos(min(1.0, max(-1.0, k / one / scale)))
        counts[min(int(theta * bins / math.pi), bins - 1)] += 1
    return counts


def semicircle_bins(bins: int, total: int) -> tuple[list[float], list[float]]:
    """The edges pi k/bins, k = 0..bins, of an angle histogram over [0, pi],
    and the count the semicircle law expects in each bin for total angles."""
    edges = [math.pi * k / bins for k in range(bins + 1)]
    # semicircle density (2/pi) sin^2 t integrates over [a,b] to
    # (b - a)/pi - (sin 2b - sin 2a)/(2 pi)
    cdf = [t / math.pi - math.sin(2 * t) / (2 * math.pi) for t in edges]
    return edges, [(b - a) * total for a, b in zip(cdf, cdf[1:])]


def semicircle_chisq(counts: list[int]) -> float:
    """Chi-square distance of an angle histogram to the semicircle law."""
    _, expected = semicircle_bins(len(counts), sum(counts))
    return sum((c - e) ** 2 / max(e, 1e-12) for c, e in zip(counts, expected))


def symmetric_moment_rhs(ctx: FieldCtx, m: int) -> int:
    """p phi(-1) sum over nonzero x_1..x_m of phi(sum x_i + 1) phi(sum 1/x_i + 1).

    Opening up K(a)^(m+1) and summing the geometric series in a shows this
    equals S(m+1, phi)_p, which makes it a counterweight to the trig-table
    route that uses no table at all. The joint distribution of
    (sum x_i, sum 1/x_i) over (Z/p)^2 is built by m-1 cyclic convolutions,
    each one cyclic_convolve of length p(2p-1) on the flat index
    i(2p-1) + j: the second coordinate cannot carry into the first, and is
    folded mod p afterwards.
    """
    p = ctx.p
    if m not in (1, 2, 3):
        raise ValueError("m must be 1, 2 or 3")
    if p > SYMMETRIC_CAP:
        raise ValueError(
            f"brute-force cap exceeded: p={p} > {SYMMETRIC_CAP}")
    w = 2 * p - 1
    base = [0] * (p * w)
    for x in range(1, p):
        base[x * w + pow(x, p - 2, p)] = 1
    dist = base
    for _ in range(m - 1):
        dist = cyclic_convolve(dist, base)
        for i in range(p):
            row = i * w
            for j in range(p, w):
                dist[row + j - p] += dist[row + j]
                dist[row + j] = 0
    qr = ctx.qr
    total = sum(dist[i * w + j] * qr[(i + 1) % p] * qr[(j + 1) % p]
                for i in range(p) for j in range(p))
    return p * qr[p - 1] * total


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


