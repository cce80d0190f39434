"""Hurwitz class numbers via reduced-form enumeration, with a sieve-built
table, and the Eichler / Cohen identities used as cross-checks.

Conventions. For D > 0 with -D a valid discriminant (D = 0 or 3 mod 4):
  h(D)       primitive class number of discriminant -D
  hfull(D)   all classes, imprimitive included: sum over f^2 | D of h(D/f^2)
  hstar12(D) 12 * H(D) where H is the Hurwitz class number: weights 1/3 for
             discriminant -3, 1/2 for -4, 1 otherwise; H(0) = -1/12.
Everything is exact integer or Fraction arithmetic.

Every reader of H takes a HurwitzTable, built by build_hurwitz_table in one
sieve over reduced forms, and indexes it directly, so a table short of a D
read raises. The sieve counts hfull; hstar12 is 12 hfull less the CM
correction, 8 at each D = 3f^2 and 6 at each D = 4f^2. The per-D routes
class_number_h, hurwitz_hstar12 and hurwitz_hfull read no table: they are
the oracles the table is tested against.

The eichler and cohen suites read the table directly: theta_sums12 gives
the sums of 12 H*(n - s^2) and s^2 12 H*(n - s^2) at one n, and
divisor_sum_table sieves sigma_1, 2 lambda_1 and 2 lambda_3 to nmax without
reading the table. The per-n routes (eichler_lhs, eichler_rhs,
cohen_coefficient, divisor_sums) stay as their test oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .primes import divisors


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


class HurwitzTable(NamedTuple):
    """hfull and hstar12 for every D <= bound, indexed by D, and squares,
    squares[r] = r^2 for r <= isqrt(4 bound + 49).

    The fourth moment's window sums (identities._window_sum12) write each
    trace s = 2 sigma and read a window as strided slices of squares, the
    sigma^2 < p of a class of sigma mod 4 or 8, each at D = p - sigma^2 or
    (p - sigma^2)/4. identities.window8 and window16, the literal windows,
    are that reader's oracle."""
    bound: int
    hfull: tuple[int, ...]
    hstar12: tuple[int, ...]
    squares: tuple[int, ...]


def build_hurwitz_table(bound: int) -> HurwitzTable:
    """Sieve all reduced forms of discriminant -D for D <= bound in one pass.

    Forms (a, b, c) with a, b fixed have D = 4ac - b^2, one strided slice
    of hfull for c = a..cmax. hstar12 is 12 hfull with the CM weights put
    in: of the classes hfull(D) counts, only the order of discriminant -3
    (present iff D = 3f^2) and that of -4 (iff D = 4f^2) have weight below
    1, 1/3 and 1/2, so 12 hfull(D) overcounts by 8 and 6 there, one
    correction per f. hstar12(0) = -1.

    The sieve costs O(bound^{3/2}): about amax * bound / 4 list updates, so
    quadrupling the bound costs about 8x. Size it to the largest D read.
    The mod-8 and mod-16 windows of the fourth moment read (4p - s^2)/4 and
    (4p - s^2)/16, both at most p; only the n = 1 Schoof count reads
    4p - s^2, past p.

    squares, the sigma^2 the window sums slice, runs to r = isqrt(4 bound
    + 49): a mod-16 window at p reads D = (p - sigma^2)/4 at some odd
    sigma <= 7, so D >= (p - 49)/4, and every p whose windows the table
    serves has p <= 4 bound + 49, so every sigma^2 < p is in squares.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    hfull = [0] * (bound + 1)
    amax = math.isqrt(bound // 3) if bound >= 3 else 0
    for a in range(1, amax + 1):
        for b in range(a + 1):
            cmax = (bound + b * b) // (4 * a)
            if cmax < a:
                continue
            # c = a counts once, as does b = 0 or b = a; D >= 3a^2 > 0
            D = 4 * a * a - b * b
            hfull[D] += 1
            w = 1 if b in (0, a) else 2
            s = slice(D + 4 * a, 4 * a * cmax - b * b + 1, 4 * a)
            hfull[s] = [n + w for n in hfull[s]]

    hstar12 = [12 * n for n in hfull]
    for d, excess in ((3, 8), (4, 6)):   # 12 - 4 at -3, 12 - 6 at -4
        for f in range(1, math.isqrt(bound // d) + 1):
            hstar12[d * f * f] -= excess
    hstar12[0] = -1
    squares = tuple([r * r for r in range(math.isqrt(4 * bound + 49) + 1)])
    return HurwitzTable(bound, tuple(hfull), tuple(hstar12), squares)


def hurwitz_hstar12(D: int) -> int:
    """12 * H(D) as an exact integer; H*(0) = -1/12 gives -1. The per-D
    oracle of HurwitzTable.hstar12: one class_number_h per square f^2 | D."""
    if D < 0:
        raise ValueError(f"discriminant parameter must be >= 0, got {D}")
    if D == 0:
        return -1
    total = 0
    f = 1
    while f * f <= D:
        if D % (f * f) == 0:
            d = D // (f * f)
            weight = 4 if d == 3 else 6 if d == 4 else 12
            total += weight * class_number_h(d)
        f += 1
    return total


def hurwitz_hfull(D: int) -> int:
    """Number of classes of all (primitive or not) forms of discriminant -D;
    the per-D oracle of HurwitzTable.hfull."""
    if D < 0:
        raise ValueError(f"discriminant parameter must be >= 0, got {D}")
    total = 0
    f = 1
    while f * f <= D:
        if D % (f * f) == 0:
            total += class_number_h(D // (f * f))
        f += 1
    return total


def divisor_sums(n: int) -> tuple[int, Fraction, Fraction]:
    """(sigma_1(n), lambda_1(n), lambda_3(n)) with lambda_k = (1/2) sum min(d, n/d)^k.

    The per-n oracle of divisor_sum_table."""
    ds = divisors(n)
    sigma1 = sum(ds)
    lam1 = Fraction(sum(min(d, n // d) for d in ds), 2)
    lam3 = Fraction(sum(min(d, n // d) ** 3 for d in ds), 2)
    return sigma1, lam1, lam3


def divisor_sum_table(nmax: int) -> tuple[list[int], list[int], list[int]]:
    """sigma_1(n), 2 lambda_1(n) and 2 lambda_3(n) for every n <= nmax, as
    integers, by one sieve over the divisor pairs (d, m = n/d) with d <= m:
    each adds d + m to sigma_1 and min(d, m)^k = d^k twice to 2 lambda_k,
    once when d = m. O(nmax log nmax); reads no class number."""
    sigma, lam1, lam3 = [0] * (nmax + 1), [0] * (nmax + 1), [0] * (nmax + 1)
    for d in range(1, math.isqrt(nmax) + 1):
        sq, cube = d * d, d ** 3
        sigma[sq] += d
        lam1[sq] += d
        lam3[sq] += cube
        s = slice(sq + d, nmax + 1, d)   # n = d m, m > d
        ms = range(d + 1, nmax // d + 1)
        sigma[s] = [x + d + m for x, m in zip(sigma[s], ms)]
        lam1[s] = [x + 2 * d for x in lam1[s]]
        lam3[s] = [x + 2 * cube for x in lam3[s]]
    return sigma, lam1, lam3


def theta_sums12(n: int, table: HurwitzTable) -> tuple[int, int]:
    """(sum_s 12 H*(n - s^2), sum_s s^2 12 H*(n - s^2)) over all integers s
    with s^2 <= n, read straight from the table: the integer sums of the
    Eichler and Cohen identities, whose per-term oracles are eichler_lhs and
    cohen_coefficient. A table short of n raises."""
    if not 0 <= n <= table.bound:
        raise ValueError(f"Hurwitz table to D={table.bound} does not "
                         f"cover n={n}")
    h = table.hstar12
    plain = weighted = 0
    for s in range(1, math.isqrt(n) + 1):
        x = h[n - s * s]
        plain += x
        weighted += s * s * x
    return h[n] + 2 * plain, 2 * weighted


def eichler_lhs(n: int, table: HurwitzTable) -> Fraction:
    """sum over s^2 <= n of H(n - s^2), for odd n > 0, read from the table;
    a table short of n raises.

    When n is a perfect square the s = +-sqrt(n) terms contribute H(0) = -1/12.
    Must equal -lambda_1(n) + sigma_1(n)/3.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"n must be a positive odd integer, got {n}")
    smax = math.isqrt(n)
    h = table.hstar12
    return Fraction(sum(h[n - s * s] for s in range(-smax, smax + 1)), 12)


def eichler_rhs(n: int) -> Fraction:
    sigma1, lam1, _ = divisor_sums(n)
    return -lam1 + Fraction(sigma1, 3)


def cohen_coefficient(ell: int, table: HurwitzTable) -> Fraction:
    """4 sum H(l - s^2) s^2 - l sum H(l - s^2) + lambda_3(l), for odd l > 0,
    with H read from the table; a table short of l raises.

    Exactly zero at every odd l tried, and the `cohen` suite matches on
    c(l) == 0; c(l) / l^(3/2) is still reported, as the size of a miss.
    """
    if ell <= 0 or ell % 2 == 0:
        raise ValueError(f"ell must be a positive odd integer, got {ell}")
    smax = math.isqrt(ell)
    sum_plain = 0
    sum_weighted = 0
    for s in range(-smax, smax + 1):
        h12 = table.hstar12[ell - s * s]
        sum_plain += h12
        sum_weighted += h12 * s * s
    _, _, lam3 = divisor_sums(ell)
    return Fraction(4 * sum_weighted - ell * sum_plain, 12) + lam3

