"""Cross-route identity checks tying Kloosterman moments to elliptic-curve
traces and Hurwitz class numbers.

Route independence is the point: each identity is computed by two or three
pipelines that share nothing beyond FieldCtx and the transform primitives,
with one exception, ap-second-moment, whose two sides both read
_sum_ap_sq.

A recurring theme, flagged where it appears: the published closed form for
the fourth twisted moment carries a constant-term slip of 2p(p-2). Both the
as-printed and the corrected variants are implemented; the solution-count
chain is internally consistent only with the as-printed constant (the two
slips cancel), while the direct moment matches only the corrected one.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import classnumber as cn
from .ecurve import ap_table, curve_census, torsion_class
from .ffield import FieldCtx, cyclic_convolve, per_prime
from .kloosterman import twisted_moment
from .records import VerificationRecord

# the caps: schoof_count_check runs its isomorphism-class census only on
# primes up to CENSUS_CAP, which fixes the schoof suite's primes (the census
# is O(p), so not its cost); the brute-force cp_count_brute only up to CP_CAP
CENSUS_CAP = 200
CP_CAP = 100

# --- windows of traces used by the class-number translations ----------------

def window8(p: int) -> list[int]:
    """s with s^2 < 4p and s = p+1 mod 8; (4p - s^2)/4 is then integral."""
    smax = math.isqrt(4 * p - 1)
    return list(range(-smax + (smax + p + 1) % 8, smax + 1, 8))


def window16(p: int) -> list[int]:
    """s with s^2 < 4p and s = p+1 mod 16; empty when p = 3 mod 4 since
    16 | 4p - s^2 forces p = 1 mod 4."""
    smax = math.isqrt(4 * p - 1)
    out = list(range(-smax + (smax + p + 1) % 16, smax + 1, 16))
    hits = [s for s in out if (4 * p - s * s) % 16 == 0]
    if hits != (out if p % 4 == 1 else []):
        raise ArithmeticError(f"mod-16 window of p={p} is off: {out}")
    return hits


def _window_sum12(p: int, k: int, e: int, table: cn.HurwitzTable) -> int:
    """sum of 12 H*((4p - s^2)/k) s^e, e = 0 or 2, over window8 (k = 4) or
    window16 (k = 16) at a prime p, as an exact integer read straight from
    the table.

    Both windows hold even s = 2 sigma with sigma^2 < p, read as slices of
    table.squares (t = sigma^2, s^2 = 4t):
      k = 4, p = 1 mod 4: sigma = (p + 1)/2 mod 4 is odd, and as s runs over
        the window |sigma| meets every odd sigma once; D = p - t.
      k = 4, p = 3 mod 4: sigma = (p + 1)/2 mod 4 is 2 or 0, a class closed
        under sigma -> -sigma: twice the sum over sigma > 0, and sigma = 0
        adds H*(p) to the e = 0 sum; D = p - t.
      k = 16: empty unless p = 1 mod 4; the odd sigma = +-(p + 1)/2 mod 8,
        two slices; D = (p - t)/4.
    window8 and window16 stay the literal windows, this reader's oracle.

    Every D read is at most p. A table that stops short of the largest D,
    or whose squares stop short of sigma^2 < p, raises.
    """
    if p == 2 or k == 16 and p % 4 != 1:   # the window is empty
        return 0
    h12, sq = table.hstar12, table.squares
    stop = math.isqrt(p - 1) + 1          # sigma^2 < p
    try:
        if stop > len(sq):
            raise IndexError
        if k == 16:
            c = (p + 1) // 2 % 8
            ts = sq[c:stop:8] + sq[8 - c:stop:8]
            if e:
                return 4 * sum([h12[(p - t) // 4] * t for t in ts])
            return sum([h12[(p - t) // 4] for t in ts])
        c = (p + 1) // 2 % 4
        if c % 2:
            ts, signs, zero = sq[1:stop:2], 1, 0
        else:
            # class 0 reads D = p at sigma = 0, as the literal window does:
            # a table short of p raises at e = 2 too, where it adds nothing
            ts, signs, zero = sq[c or 4:stop:4], 2, 0 if c else h12[p]
        if e:
            return 4 * signs * sum([h12[p - t] * t for t in ts])
        return signs * sum([h12[p - t] for t in ts]) + zero
    except IndexError:
        window = window8(p) if k == 4 else window16(p)
        top = max((4 * p - s * s) // k for s in window)
        raise ValueError(f"Hurwitz table to D={table.bound} is too small for "
                         f"the k={k} window at p={p}, which reads D={top}"
                         ) from None


@per_prime
def _sum_ap_sq(ctx: FieldCtx) -> int:
    """sum over gamma not in {0, +-1} of a_p(gamma^2)^2, once per prime:
    both heads of route 2 and the C_p chain read it."""
    aps = ap_table(ctx)
    return sum(aps[g * g % ctx.p] ** 2 for g in range(2, ctx.p - 1))


def s4_direct(ctx: FieldCtx) -> int:
    """Route 1: the moment itself, summed exactly over the fixed-point
    Kloosterman table (one cyclic convolution over Z/p of the cosines
    gathered by quadric point count with phi, by Python int or libmpdec's
    transform as its size picks) from its power sums (one pass per prime)
    and rounded with an integer error certificate."""
    phi_idx = (ctx.p - 1) // 2
    return twisted_moment(ctx, 4, phi_idx)


def s4_via_ap(ctx: FieldCtx, corrected: bool = False) -> int:
    """Route 2: -p^3 + 2p^2 + p * sum a_p(gamma^2)^2 as printed.

    corrected=True replaces the head by -p^3 + 4p, which is what the direct
    moment actually equals (the printed head overshoots by 2p(p-2)).
    """
    p = ctx.p
    head = -p ** 3 + 4 * p if corrected else -p ** 3 + 2 * p ** 2
    return head + p * _sum_ap_sq(ctx)


def s4_via_classnumbers(p: int, table: cn.HurwitzTable,
                        corrected: bool = False) -> int:
    """Route 3: trace sums re-expressed through Hurwitz windows.

    p * sum a_p(gamma^2)^2 = 4p * sum_{s in W8} H*((4p-s^2)/4) s^2
                           + [p=1 mod 4] 8p * sum_{s in W16} H*((4p-s^2)/16) s^2,
    then the same head as s4_via_ap. The sums are taken over 12 H* and
    divided by 12 once; a remainder raises.
    """
    total12 = 4 * p * _window_sum12(p, 4, 2, table)
    if p % 4 == 1:
        total12 += 8 * p * _window_sum12(p, 16, 2, table)
    total, rem = divmod(total12, 12)
    if rem:
        raise ArithmeticError(f"class-number assembly not integral at p={p}: "
                              f"remainder {rem}/12")
    head = -p ** 3 + 4 * p if corrected else -p ** 3 + 2 * p ** 2
    return head + total


def sheaf_via_s4(p: int, s4: int) -> int:
    """M(4,phi) = S(4,phi) + 3p^2."""
    return s4 + 3 * p ** 2


# --- solution count C_p and the A_p chain ------------------------------------

def cp_count_brute(ctx: FieldCtx) -> int:
    """Number C_p of (x,y,z,u) in (F_p*)^4 with sum of all eight x+1/x terms
    zero, for p <= CP_CAP: cube the value distribution of x + 1/x by two
    cyclic convolutions over Z/p, and close the u-coordinate analytically via
    the root count 1 + phi(t^2 - 4)."""
    p = ctx.p
    if p > CP_CAP:
        raise ValueError(f"brute-force cap exceeded: p={p} > {CP_CAP}")
    cnt = [0] * p
    for x in range(1, p):
        cnt[(x + pow(x, -1, p)) % p] += 1
    conv = cyclic_convolve(cyclic_convolve(cnt, cnt), cnt)
    return sum(c * (1 + ctx.qr[(t * t - 4) % p]) for t, c in enumerate(conv))


def cp_count_formula(ctx: FieldCtx) -> int:
    """C_p = (p-1)^3 - 2(p-1)^2 + 3(p-1)(p-2) + 3(p-2) + S(4,phi)/p with the
    as-printed moment; the two constant slips cancel, so this equals
    cp_count_brute."""
    p = ctx.p
    s4 = s4_via_ap(ctx, corrected=False)
    if s4 % p:
        raise ArithmeticError(f"S(4,phi) = {s4} not divisible by p={p}")
    return ((p - 1) ** 3 - 2 * (p - 1) ** 2 + 3 * (p - 1) * (p - 2)
            + 3 * (p - 2) + s4 // p)


def ap_second_moment_check(ctx: FieldCtx) -> VerificationRecord:
    """C_p - (p^3 - 4p^2 + 6p - 4) must equal 1 - 3p + p^2 + sum a_p(gamma^2)^2.

    This record cannot fail: C_p here is cp_count_formula, which reads the
    same sum through s4_via_ap, so both sides equal p^2 - 3p + 1 + sum
    a_p(gamma^2)^2 whatever the sum is. It checks the printed constant's
    algebra, not the traces."""
    p = ctx.p
    lhs = cp_count_formula(ctx) - (p ** 3 - 4 * p ** 2 + 6 * p - 4)
    rhs = 1 - 3 * p + p * p + _sum_ap_sq(ctx)
    return VerificationRecord(p, "ap-second-moment", lhs, rhs, lhs == rhs)


# --- census-based checks ------------------------------------------------------

@per_prime
def _schoof_tally(ctx: FieldCtx) -> dict[tuple[int, int], tuple[int, int]]:
    """(plain, weighted12) by (n, a_p) over the census: the number of
    classes of that trace with full rational n-torsion, and the sum of
    24/|Aut| over them. n = 2 needs E[2] rational, n = 4 E[4]."""
    tally: dict[tuple[int, int], tuple[int, int]] = {}
    for c in curve_census(ctx):
        for n, full in ((1, True), (2, c.two_rank == 2), (4, c.four_full)):
            if full:
                plain, w12 = tally.get((n, c.a_p), (0, 0))
                tally[n, c.a_p] = (plain + 1, w12 + 24 // c.aut)
    return tally


def schoof_count_check(ctx: FieldCtx, n: int, s: int,
                       table: cn.HurwitzTable) -> VerificationRecord:
    """Isomorphism classes with trace s and full rational n-torsion, against
    the class numbers of -(4p - s^2)/n^2, read from the table, for
    p <= CENSUS_CAP; a table short of (4p - s^2)/n^2 raises. The census
    side is one lookup in the prime's tally.

    The plain class count matches the ordinary (unweighted) convention and
    the 1/|Aut|-weighted count matches the Hurwitz one; the record's detail
    says which held, rather than presuming either.
    """
    p = ctx.p
    if n not in (1, 2, 4):
        raise ValueError(f"n must be 1, 2 or 4, got {n}")
    if p > CENSUS_CAP:
        raise ValueError(f"census cap exceeded: p={p} > {CENSUS_CAP}")
    if s * s >= 4 * p or s % p == 0:
        raise ValueError(f"inadmissible trace s={s} for p={p}")
    if (p + 1 - s) % (n * n) or (p - 1) % n:
        raise ValueError(f"n={n} incompatible with p={p}, s={s}")
    D, rem = divmod(4 * p - s * s, n * n)
    if rem:
        raise ArithmeticError(f"window arithmetic is off: n={n}, s={s}, p={p}")
    if D > table.bound:
        raise ValueError(f"Hurwitz table to D={table.bound} does not "
                         f"cover D={D}")
    tally = _schoof_tally(ctx)
    plain, weighted12 = tally.get((n, s), (0, 0))
    rhs_plain = table.hfull[D]
    rhs_w12 = table.hstar12[D]
    ok_plain = plain == rhs_plain
    ok_weighted = weighted12 == rhs_w12
    return VerificationRecord(
        p, f"schoof-n{n}-s{s}", plain, rhs_plain, ok_plain and ok_weighted,
        detail=f"plain={'H' if ok_plain else 'mismatch'} "
               f"weighted={'H*' if ok_weighted else 'mismatch'}")


def counting_lemma_check(ctx: FieldCtx,
                         table: cn.HurwitzTable) -> VerificationRecord:
    """(1/2) sum over lambda not in {0,+-1} of (1 + phi(1-lambda^2))
    against 12 * sum_{s in W16} H*((4p-s^2)/16), exactly (p = 1 mod 4)."""
    p = ctx.p
    if p % 4 != 1:
        raise ValueError(f"p must be 1 mod 4, got {p}")
    twice = 0
    for lam in range(2, p - 1):
        twice += 1 + ctx.qr[(1 - lam * lam) % p]
    lhs, odd = divmod(twice, 2)
    if odd:
        raise ArithmeticError(f"odd lambda count {twice} at p={p}")
    rhs = _window_sum12(p, 16, 0, table)
    return VerificationRecord(p, "counting-1", lhs, rhs, lhs == rhs)


def torsion_census_check(ctx: FieldCtx,
                         table: cn.HurwitzTable) -> VerificationRecord:
    """4 * sum_{s in W8} H*((4p-s^2)/4) is exactly p - 3 at p = 3 mod 4 and
    (2p - 4)/3 at p = 1 mod 4; the census side counts lambda not in {0,+-1}
    whose E_{lambda^2} has a rational 4-torsion point (all p - 3 of them, if
    the 2x4 containment claim is right). match needs both; ratio is
    |lhs - form|/sqrt(p)."""
    p = ctx.p
    lhs = Fraction(4 * _window_sum12(p, 4, 0, table), 12)
    form, name = ((p - 3, "p-3") if p % 4 == 3
                  else (Fraction(2 * p - 4, 3), "(2p-4)/3"))
    census = sum(
        1 for lam in range(2, p - 1)
        if torsion_class(ctx, lam * lam % p) in ("2x4", "4x4"))
    diff = abs(lhs - form)
    return VerificationRecord(
        p, "torsion-census", float(lhs), census,
        census == p - 3 and lhs == form, ratio=float(diff) / math.sqrt(p),
        detail=f"form={name} |lhs-form|={float(diff):.3f}")


# --- asymptotic ratio sweeps --------------------------------------------------

# claim -> (modulus, residue): a claim reads the primes p = residue mod
# modulus. The mod-8 / mod-16 window sums drift to p^2/6, p^2/2, p^2/4 with
# an O(p^{3/2}) error. prop4.6, prop4.9 and prop4.11 divide the 12 H* sum by
# 12 first; prop4.8 subtracts p^2/2 from the undivided 12 H* sum, whose H*
# form drifts to p^2/24 (see _window_quantity).
SWEEP_CLAIMS = {"thm1.1": (1, 0), "cor1.2": (1, 0),
                "prop4.6": (4, 1), "prop4.8": (4, 1),
                "prop4.9": (8, 3), "prop4.11": (8, 7)}


def _window_quantity(p: int, table: cn.HurwitzTable, which: str) -> Fraction:
    """The window sum of a claim minus its p^2 main term.

    prop4.6, prop4.9 and prop4.11 read sum H* s^2, the 12 H* sum divided by
    12. prop4.8 alone subtracts p^2/2 from the undivided sum of 12 H* s^2
    over the mod-16 window: in H* itself that sum is about p^2/24, not
    p^2/2. Which scale the paper states is not settled here; the sweep
    keeps the undivided reading, and its output with it.
    """
    if which == "prop4.8":
        return _window_sum12(p, 16, 2, table) - Fraction(p * p, 2)
    main = {"prop4.6": 6, "prop4.9": 4, "prop4.11": 4}[which]
    return Fraction(_window_sum12(p, 4, 2, table), 12) - Fraction(p * p, main)


def asymptotic_record(p: int, which: str, table: cn.HurwitzTable,
                      threshold: float) -> VerificationRecord:
    """One prime of an asymptotic ratio sweep; it matches iff its ratio is
    at most the threshold, and says so in detail. A prime outside the
    claim's class in SWEEP_CLAIMS raises. Moment values come from the
    (corrected) class-number route, which costs O(sqrt p) per prime once the
    table exists; the route equalities are enforced elsewhere.
    """
    if which not in SWEEP_CLAIMS:
        raise ValueError(f"unknown claim {which!r}; pick from "
                         f"{', '.join(SWEEP_CLAIMS)}")
    modulus, residue = SWEEP_CLAIMS[which]
    if p % modulus != residue:
        raise ValueError(f"{which} reads p = {residue} mod {modulus}, got {p}")
    if which in ("thm1.1", "cor1.2"):
        s4 = s4_via_classnumbers(p, table, corrected=True)
        val = s4 if which == "thm1.1" else sheaf_via_s4(p, s4)
        ratio = abs(val) / p ** 2.5
    else:
        val = float(_window_quantity(p, table, which))
        ratio = abs(val) / p ** 1.5
    return VerificationRecord(p, which, val, 0, ratio <= threshold,
                              ratio=ratio, detail=f"threshold={threshold:g}")
