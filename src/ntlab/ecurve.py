"""Legendre curves y^2 = x(x-1)(x-lambda) over F_p: traces, j-invariants,
twist relations, 2-power torsion, and F_p-isomorphism classes.

ap_table gets every a_p(lambda) from one cyclic_convolve of character tables,
and the suites read every Legendre trace from it; ap_legendre, the oracle it
is checked against, sums one lambda directly. ap_table and curve_census are
per_prime builders; the census gets its own a_p from a second convolution.
Its generic classes are y^2 = x^3 + k(3x + 2) and their twists; off
x = -2/3 the cubic factors as (3x + 2)(k - rho(x)), rho(x) = -x^3/(3x + 2),
so every a_p is one correlation of phi with the weights of rho's fibres,
and the fibre over k holds the curve's roots. Only the at most ten classes
at j = 0 and 1728 are evaluated one by one.
F_p-isomorphism classes are keyed by _iso_class, j and the twist class
that the isomorphisms (A, B) -> (u^4 A, u^6 B) leave fixed; l_set_sizes
tallies it, and curves_isomorphic (the literal search for u) and l_set
(a (j, a_p) match by ap_legendre) are its oracles.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .ffield import FieldCtx, cyclic_convolve, per_prime


def _check_lambda(ctx: FieldCtx, lam: int) -> int:
    lam %= ctx.p
    if lam in (0, 1):
        raise ValueError(f"singular curve: lambda = {lam}")
    return lam


def ap_legendre(ctx: FieldCtx, lam: int) -> int:
    """a_p(lambda) = -sum over x of phi(x (x-1) (x-lambda)), exact."""
    p = ctx.p
    lam = _check_lambda(ctx, lam)
    qr = ctx.qr
    return -sum([qr[x * (x - 1) * (x - lam) % p] for x in range(p)])


@per_prime
def ap_table(ctx: FieldCtx) -> tuple[int, ...]:
    """a_p(lambda) for every lambda, 0 and 1 (singular) set to 0: with
    f(x) = phi(x) phi(x-1), it is -phi(-1) (f * phi)(lambda) over Z/p."""
    qr = ctx.qr
    f = [qr[x] * qr[x - 1] for x in range(ctx.p)]
    aps = [-qr[-1] * w for w in cyclic_convolve(f, qr)]
    aps[0] = aps[1] = 0
    return tuple(aps)


def j_invariant(ctx: FieldCtx, lam: int) -> int:
    """j = 256 (lambda^2 - lambda + 1)^3 / (lambda^2 (lambda - 1)^2) mod p."""
    p = ctx.p
    lam = _check_lambda(ctx, lam)
    num = 256 * pow(lam * lam - lam + 1, 3, p)
    den = pow(lam, 2, p) * pow(lam - 1, 2, p) % p
    return num * pow(den, p - 2, p) % p


def twist_relation_check(ctx: FieldCtx, lam: int) -> tuple[bool, bool, bool]:
    """The three quadratic-twist trace relations along the lambda-orbit,
    read from ap_table: they are identities among a_p values, not a
    comparison of routes."""
    p = ctx.p
    lam = _check_lambda(ctx, lam)
    aps, qr = ap_table(ctx), ctx.qr
    a = aps[lam]
    r1 = a == qr[lam] * aps[pow(lam, p - 2, p)]
    r2 = a == qr[p - 1] * aps[(1 - lam) % p]
    mu = lam * pow(lam - 1, p - 2, p) % p
    r3 = a == qr[(1 - lam) % p] * aps[mu]
    return r1, r2, r3


def _halvable(ctx: FieldCtx, e: int, others: tuple[int, int]) -> bool:
    """(e, 0) is in 2 E(F_p) iff e - e' is a square for both other roots."""
    return all(ctx.qr[(e - o) % ctx.p] == 1 for o in others)


def torsion_class(ctx: FieldCtx, lam: int) -> str:
    """2-power torsion bucket of E_lambda: '2x2', '2x4' or '4x4'.

    All three 2-torsion points are rational; (e,0) halves iff the two root
    differences at e are squares. The halvable points form a subgroup of
    E[2] meeting 2E(F_p), so the count is 0, 1 or 3.
    """
    lam = _check_lambda(ctx, lam)
    roots = (0, 1, lam)
    n = sum(_halvable(ctx, roots[i], (roots[(i + 1) % 3], roots[(i + 2) % 3]))
            for i in range(3))
    if n == 0:
        return "2x2"
    if n == 1:
        return "2x4"
    if n == 3:
        return "4x4"
    raise AssertionError(f"halvable 2-torsion count {n} is not a subgroup size")


def short_weierstrass(ctx: FieldCtx, lam: int) -> tuple[int, int]:
    """E_lambda in the form y^2 = x^3 + Ax + B (depressed cubic)."""
    p = ctx.p
    lam = _check_lambda(ctx, lam)
    s1, s2 = (1 + lam) % p, lam
    inv3 = pow(3, p - 2, p)
    inv27 = pow(27, p - 2, p)
    A = (s2 - s1 * s1 % p * inv3) % p
    B = (s1 * s2 % p * inv3 - 2 * s1 * pow(s1, 2, p) % p * inv27) % p
    return A, B


def _iso_class(ctx: FieldCtx, lam: int) -> tuple[int, int]:
    """(j, twist class) of E_lambda: equal keys exactly when the curves are
    F_p-isomorphic, as (A, B) -> (u^4 A, u^6 B) are the isomorphisms.

    With c = lambda^2 - lambda + 1 and d = (lambda + 1)(lambda - 2)
    (2 lambda - 1), short_weierstrass gives A = -c/3 and B = -d/27. Off
    j in {0, 1728} the class is phi(B/A) = phi(c) phi(d), as phi(81) = 1;
    at j = 1728 (B = 0) it is dlog A mod gcd(4, p - 1), at j = 0 (A = 0)
    dlog B mod gcd(6, p - 1).
    """
    p, qr = ctx.p, ctx.qr
    lam = _check_lambda(ctx, lam)
    c = (lam * lam - lam + 1) % p
    d = (lam + 1) * (lam - 2) * (2 * lam - 1) % p
    if c and d:
        return j_invariant(ctx, lam), qr[c] * qr[d]
    A, B = short_weierstrass(ctx, lam)   # not both 0: E_lambda is smooth
    n = 4 if B == 0 else 6
    return j_invariant(ctx, lam), ctx.dlog[A or B] % math.gcd(n, p - 1)


def curves_isomorphic(ctx: FieldCtx, lam1: int, lam2: int) -> bool:
    """F_p-isomorphism of E_lam1 and E_lam2 by its definition: some u in
    F_p^* has A2 = u^4 A1 and B2 = u^6 B1 in short Weierstrass form.

    An O(p) oracle, like ap_legendre: l_set's test at ambiguous keys and
    the test oracle of _iso_class.
    """
    p = ctx.p
    A1, B1 = short_weierstrass(ctx, lam1)
    A2, B2 = short_weierstrass(ctx, lam2)
    return any((s * s * A1 - A2) % p == 0 and (s * s * s * B1 - B2) % p == 0
               for s in (u * u % p for u in range(1, p)))


def l_set(ctx: FieldCtx, lam: int) -> set[int]:
    """L(lambda): all mu (both signs) with E_{lambda^2} isomorphic to E_{mu^2}.

    Matching is by (j, a_p) key, a_p from ap_legendre, with curves_isomorphic
    whenever the key is ambiguous (a_p = 0 or j in {0, 1728}): the oracle
    of l_set_sizes, sharing no step with its _iso_class tally.
    """
    p = ctx.p
    lam %= p
    if lam in (0, 1, p - 1):
        raise ValueError(f"lambda must avoid {{0, +-1}}, got {lam}")
    lam2 = lam * lam % p
    jt = j_invariant(ctx, lam2)
    at = ap_legendre(ctx, lam2)
    degenerate = at == 0 or jt == 0 or jt == 1728 % p
    out = set()
    for mu in range(2, p - 1):
        mu2 = mu * mu % p
        if j_invariant(ctx, mu2) != jt:
            continue
        if degenerate:
            if curves_isomorphic(ctx, lam2, mu2):
                out.add(mu)
        elif ap_legendre(ctx, mu2) == at:
            out.add(mu)
    return out


def l_set_sizes(ctx: FieldCtx) -> dict[int, int]:
    """|L(lambda)| for every lambda not in {0, +-1}: one tally of the
    _iso_class key of E_{mu^2} over mu < p/2; -mu has the same mu^2, so
    each key counts twice and p - mu reads the size of mu."""
    p = ctx.p
    keys = {mu: _iso_class(ctx, mu * mu % p) for mu in range(2, (p + 1) // 2)}
    tally = Counter(keys.values())
    sizes = {mu: 2 * tally[k] for mu, k in keys.items()}
    return sizes | {p - mu: n for mu, n in sizes.items()}


# --- full isomorphism-class census ------------------------------------------

class CurveClass(NamedTuple):
    A: int
    B: int
    a_p: int
    two_rank: int        # 0, 1 or 2: rank of E[2](F_p)
    four_full: bool      # E[4] entirely rational
    aut: int             # |Aut_{F_p}| given rational CM at j = 0, 1728


def _class_of(ctx: FieldCtx, A: int, B: int, cubes: list[int]) -> CurveClass:
    """The class of y^2 = x^3 + Ax + B; cubes[x] = x^3 mod p. One
    evaluation of the cubic gives its roots and a_p."""
    p = ctx.p
    A %= p
    B %= p
    vals = [(c + A * x + B) % p for x, c in enumerate(cubes)]
    two_rank = {0: 0, 1: 1, 3: 2}[vals.count(0)]
    four_full = False
    if two_rank == 2 and p % 4 == 1:
        roots = [x for x, v in enumerate(vals) if not v]
        four_full = all(
            ctx.qr[(roots[i] - roots[k]) % p] == 1
            for i in range(3) for k in range(3) if i != k)
    if B == 0:
        aut = 4 if p % 4 == 1 else 2
    elif A == 0:
        aut = 6 if p % 3 == 1 else 2
    else:
        aut = 2
    a_p = -sum(map(ctx.qr.__getitem__, vals))
    return CurveClass(A, B, a_p, two_rank, four_full, aut)


@per_prime
def curve_census(ctx: FieldCtx) -> tuple[CurveClass, ...]:
    """One representative per F_p-isomorphism class of elliptic curves.

    j = 1728: y^2 = x^3 + g^i x, i < gcd(4, p-1);
    j = 0:    y^2 = x^3 + g^i,   i < gcd(6, p-1);
    j not in {0, 1728}: y^2 = x^3 + 3kx + 2k, k = j/(1728 - j), and its
    quadratic twist (3kd^2, 2kd^3), d the least non-residue.

    The at most ten CM classes go through _class_of. The generic ones
    share one pass over x: with x0 = -2/3 and rho(x) = -x^3/(3x + 2),
    x^3 + k(3x + 2) = (3x + 2)(k - rho(x)) for x != x0, so
    a_p(k) = -phi(x0) - sum over r of W(r) phi(k - r), with
    W(r) = sum over rho(x) = r of phi(3x + 2): one cyclic_convolve(W, phi).
    The roots of curve k are the x with rho(x) = k. The twist's a_p is
    the negative, and its roots are d times those of curve k, so its E[4]
    is rational iff every phi(r_i - r_k) is -1.
    """
    p = ctx.p
    if p <= 3:
        raise ValueError("census needs p > 3")
    g, qr, dlog = ctx.g, ctx.qr, ctx.dlog
    cubes = [x * x * x % p for x in range(p)]
    out = []
    for i in range(math.gcd(4, p - 1)):
        out.append(_class_of(ctx, pow(g, i, p), 0, cubes))
    for i in range(math.gcd(6, p - 1)):
        out.append(_class_of(ctx, 0, pow(g, i, p), cubes))
    # 1/t = g^(-dlog t), read from one table of powers of g
    powers = [1] * (p - 1)
    for i in range(1, p - 1):
        powers[i] = powers[i - 1] * g % p
    W, roots = [0] * p, {}
    for x, c in enumerate(cubes):
        t = (3 * x + 2) % p
        if t:
            r = -c * powers[-dlog[t]] % p
            W[r] += qr[t]
            roots.setdefault(r, []).append(x)
    sums = cyclic_convolve(W, qr)
    phi_x0 = qr[-6 % p]   # phi(-2/3) = phi(-6)
    d = next(x for x in range(2, p) if qr[x] == -1)
    d2, d3 = d * d % p, pow(d, 3, p)
    for j in range(1, p):
        if j == 1728 % p:
            continue
        k = j * powers[-dlog[(1728 - j) % p]] % p
        A, B = 3 * k % p, 2 * k % p
        a_p = -phi_x0 - sums[k]
        rs = roots.get(k, ())
        two_rank = {0: 0, 1: 1, 3: 2}[len(rs)]
        four = twist_four = False
        if two_rank == 2 and p % 4 == 1:   # phi(-1) = 1: one sign a pair
            r0, r1, r2 = rs
            signs = {qr[r0 - r1], qr[r0 - r2], qr[r1 - r2]}
            four, twist_four = signs == {1}, signs == {-1}
        out.append(CurveClass(A, B, a_p, two_rank, four, 2))
        out.append(CurveClass(A * d2 % p, B * d3 % p, -a_p, two_rank,
                              twist_four, 2))
    return tuple(out)
