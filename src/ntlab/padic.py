"""p-adic engine: the Teichmueller character, Morita's Gamma_p,
Gross-Koblitz Gauss sums in the pi-ring Z[pi]/(pi^(p-1)+p), Jacobi sums,
Greene/McCarthy hypergeometric functions, and the twisted-moment identity
checks that hinge on them.

No root of unity zeta_p is ever constructed: Gauss-sum arithmetic goes
through gauss_product, one Gross-Koblitz product read as a (pi-degree,
unit) pair, with direct Jacobi sums as the independent validator. Rational
reconstruction from residues mod p^K uses explicit archimedean (Weil)
bounds and fails loudly when the bound does not clear p^K/2. The
Teichmueller character is one power chain: omega(g) is the one Hensel lift
a context makes, and omega^c(x) = omega(g)^(c dlog x).

A character sum wanted at every character, or at every lambda, is one
teichmuller_dft, a chirp correlation taken as one negacyclic
cyclic_convolve of p-1 slots: of an O(p) histogram over discrete logs
(_character_sums: the Jacobi table J_c, the w_c of prop6.6, the
lambda-sum inside the Gauss-sum integer I), of J_c^2 (S(lambda) = p(p-1)
2F1(lambda), shared by greene and prop6.6), or of the nGn coefficients
(their sums at every t). The literal O(p) sums, jacobi_sum and _greene_S,
stay as the oracles of those tables; jacobi_sum is also the independent
validator of Gross-Koblitz in gk_consistency_check. Suites and sweeps read
every table of a prime on one context, make_padic_ctx(p), at the K = 6
their Weil bounds need; only gfun's ngn_evaluate raises K by the scale.

Gamma_p at a rational x is Gamma_p at x mod p^K, as Gamma_p is 1-Lipschitz
for odd p. _GammaEngine evaluates it at any integer n >= 0 in O(K) time,
from a Newton form in the number of whole blocks of p factors, and checks
itself against the literal product, gamma_p_direct, on [64p, 65p].
Every value a check reads is Gamma_p(i/(12(p-1))), 0 <= i < 12(p-1): the
Gauss units at j/(p-1), the product formulas at t and t(p-1) for t | 12,
and the nGn parameters, all in twelfths. _gamma_run reads them from one
row per context, a run at a time (a formula's t factors, every Gauss
unit, an nGn parameter at every a), and fills the entries the row lacks
in one loop over the engine, so a check pays once per distinct value.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .ecurve import ap_table
from .ffield import (CharIdx, FieldCtx, cyclic_convolve, make_field_ctx,
                     per_prime)
from .records import VerificationRecord

# ---------------------------------------------------------------------------
# Gamma_p


def gamma_p_direct(p: int, K: int, n: int) -> int:
    """(-1)^n prod_{0<i<n, p does not divide i} i mod p^K: the literal O(n)
    product, the oracle of the block engine and the start of its self-test.
    It walks the blocks (tp, tp + p) that skip the multiples of p, one
    running product reduced at every factor."""
    mod = p ** K
    v = 1
    for t in range(0, n, p):
        for i in range(t + 1, min(t + p, n)):
            v = v * i % mod
    return (-v if n % 2 else v) % mod


class _GammaEngine:
    """Block evaluation of Gamma_p(n) mod p^K for every n >= 0.

    n = m p + r splits into m whole blocks of p factors and a tail of r - 1:
    Gamma_p(n) = (-1)^(m+n) Q(m) prod_{0<i<r} (m p + i), where
    Q(m) = Gamma_p(m p) = prod_{t<m} (-R(t)) and R(t) = prod_{0<i<p} (tp + i).
    R and the tails are the prefix products prod_{0<i<r} (z + i), kept mod
    p^K to degree < K: z = t p or m p has v_p >= 1, so higher degrees vanish.

    Q is read from its Newton form Q(m) = sum_k D_k C(m, k), D_k =
    Delta^k Q(0), cut at k < 2K - 1; the cut is exact mod p^K because
    v_p(Delta^k Q(t)) >= ceil(k/2) at every t >= 0. Proof: Delta Q = Q h with
    h(t) = -R(t) - 1. Wilson's theorem gives v_p(h) >= 1, and for j >= 1,
    v_p(Delta^j h) >= j: R's z^d coefficient is multiplied by (tp)^d =
    p^d t^d, and Delta^j t^d is an integer polynomial, zero for d < j.
    Leibniz for forward differences gives
        Delta^k Q(t) = sum_{j<k} C(k-1, j) Delta^j Q(t) Delta^(k-1-j) h(t+j),
    and by induction on k each term has v_p >= ceil(j/2) + max(k-1-j, 1)
    >= ceil(k/2). Only v_p(h) >= 1 is used, so the Wilson primes 5, 13 and
    563, where (p-1)! = -1 mod p^2, need no exception.

    The D_k are differenced from Q(0..2K-2), products of R's values. With
    F = (2K-2)!, F Q(m) = sum_k D_k (F/k!) m(m-1)...(m-k+1) has integer
    coefficients, kept in monomial form mod p^K F, so a call is two Horner
    passes of O(K) steps and an exact division by F, whatever n and p are.
    Each Horner pass runs on unreduced ints and is reduced once at its
    end: at p = 61 that is a quarter faster than a reduction at every
    step, and at p near 10^4 and K = 8 about as fast.
    The self-test compares every n in [64p, 65p] with the literal product.
    """

    def __init__(self, p: int, K: int):
        self.p, self.K = p, K
        self.mod = mod = p ** K
        # prefix products prod_{0<i<r} (z + i) mod p^K, truncated to degree
        # < K; the last one, r = p, is R(t) at z = tp
        poly = [1]
        prefixes = [[1]]
        for i in range(1, p):
            prefixes.append(poly)
            poly = [(c * i + b) % mod
                    for c, b in zip(poly + [0], [0] + poly)][:K]
        self._tails = [f[::-1] for f in prefixes]  # highest degree first
        # Q(t) at t = 0..2K-2 from Q(t+1) = -R(t) Q(t), then D_k = Delta^k Q(0)
        vals = [1]
        for t in range(2 * K - 2):
            r = 0
            for c in reversed(poly):
                r = (r * t * p + c) % mod
            vals.append(-r * vals[-1] % mod)
        diffs = []
        while vals:
            diffs.append(vals[0])
            vals = [b - a for a, b in zip(vals, vals[1:])]
        # F Q(m) in monomials of m, highest degree first
        self._F = F = math.factorial(2 * K - 2)
        self._fmod = mod * F
        out = [0] * len(diffs)
        fall = [1]  # m(m-1)...(m-k+1), lowest degree first
        for k, dk in enumerate(diffs):
            scale = dk * (F // math.factorial(k))
            for d, c in enumerate(fall):
                out[d] += scale * c
            fall = [a - k * b for a, b in zip([0] + fall, fall + [0])]
        self._newton = [c % self._fmod for c in reversed(out)]
        self._selftest()

    def _blocks(self, m: int) -> int:
        """Q(m) = Gamma_p(m p) = prod_{t<m} (-R(t)) mod p^K."""
        fmod = self._fmod
        x = m % fmod
        tot = 0
        for c in self._newton:
            tot = tot * x + c
        q, rem = divmod(tot % fmod, self._F)
        if rem:
            raise ArithmeticError(f"F Q(m) at m={m} is not divisible by F")
        return q

    def _tail(self, m: int, r: int) -> int:
        """prod_{0<i<r} (m p + i) mod p^K."""
        mod = self.mod
        z = m * self.p % mod
        tot = 0
        for c in self._tails[r]:
            tot = tot * z + c
        return tot % mod

    def at_int(self, n: int) -> int:
        """Gamma_p(n) mod p^K for n >= 0 (n may be astronomically large)."""
        mod = self.mod
        m, r = divmod(n, self.p)
        val = self._blocks(m) * self._tail(m, r) % mod
        # (-1)^m from the blocks, (-1)^n from Gamma_p's sign convention
        return -val % mod if (m + n) % 2 else val

    def _selftest(self):
        """at_int against the literal product over n in [64p, 65p]: every
        tail polynomial, and the blocks Q(m) at m = 64 and 65. The product is
        taken once, to 64p, and carried on by Gamma_p(n+1) = -n Gamma_p(n)
        (-Gamma_p(n) where p | n), reduced mod p^K at every factor."""
        p, mod = self.p, self.mod
        lo = 64 * p
        g = gamma_p_direct(p, self.K, lo)
        for n in range(lo, lo + p + 1):
            if self.at_int(n) != g:
                raise ArithmeticError(
                    f"Gamma_p block method broken at p={p}, n={n}")
            g = -g * (n if n % p else 1) % mod


# ---------------------------------------------------------------------------
# contexts

class PadicCtx:
    """Tables mod p^K: the powers pw[k] = omega(g)^k, which every
    Teichmueller value is read from, and, filled on first use, the Gamma_p
    engine at its own K and the entries of the row _gamma_run reads. omega(g)
    is the fixed point of t -> t^p from t = g, reached in at most K steps.
    Gamma_p arguments live mod p^K, with no guard digit. Every other table
    of a context is a per_prime builder's; the package builds contexts
    through make_padic_ctx alone.
    """

    def __init__(self, field: FieldCtx, K: int):
        if field.p < 5 or K < 1:
            raise ValueError(f"p-adic engine needs p >= 5 and precision "
                             f"K >= 1, got p={field.p}, K={K}")
        self.field, self.p, self.q, self.K = field, field.p, field.p - 1, K
        self.mod = mod = field.p ** K
        wg, prev = field.g, None
        while wg != prev:
            prev, wg = wg, pow(wg, field.p, mod)
        self.pw = list(accumulate(range(self.q - 1),
                                  lambda x, _: x * wg % mod, initial=1))
        self._engine: _GammaEngine | None = None
        # Gamma_p(i/(12(p-1))) at entry i, and 1/(12(p-1)) mod p^K
        self._row: list[int | None] = [None] * (12 * self.q)
        self._row_step = pow(12 * self.q, -1, self.mod)

    def residue(self, num: int, den: int) -> int:
        """num/den mod p^K, the integer gamma_p reduces a rational to."""
        if den % self.p == 0:
            raise ValueError(f"{num}/{den} is not p-integral, p={self.p}")
        return num * pow(den, -1, self.mod) % self.mod

    @property
    def engine(self) -> _GammaEngine:
        self._engine = self._engine or _GammaEngine(self.p, self.K)
        return self._engine

    def omega(self, x: int, c: int = 1) -> int:
        """omega^c(x) mod p^K; zero for x = 0 mod p."""
        if x % self.p == 0:
            return 0
        return self.pw[c * self.field.dlog[x % self.p] % self.q]


@per_prime
def make_padic_ctx(p: int, K: int = 6) -> PadicCtx:
    """The context at (p, K), one per pair at the current prime."""
    return PadicCtx(make_field_ctx(p), K)


@per_prime
def _chirps(ctx: PadicCtx) -> tuple[list[int], list[int]]:
    """teichmuller_dft's chirps omega^-C(k,2) and omega^C(k,2), k < q."""
    q, pw = ctx.q, ctx.pw
    tri = [k * (k - 1) // 2 % q for k in range(q)]
    return [pw[-t % q] for t in tri], [pw[t] for t in tri]


def teichmuller_dft(ctx: PadicCtx, x: list[int]) -> list[int]:
    """F[a] = sum_k x[k] omega(g)^(a k) mod p^K for every a in Z/(p-1).

    Z_p holds no 2q-th root of unity, so the Bluestein chirp omega^(k^2/2)
    does not exist; the triangular chirp does: a k = C(a+k, 2) - C(a, 2)
    - C(k, 2) gives F[a] = omega^-C(a,2) sum_k (x_k omega^-C(k,2))
    omega^C(a+k,2). As C(m+q, 2) = C(m, 2) + q/2 mod q, that chirp changes
    sign at q: the correlation is one negacyclic cyclic_convolve of q slots
    of residues below p^K, with u reversed, whose slot q - 1 is F[0]'s sum
    and slot a - 1 minus F[a]'s.
    """
    q, mod = ctx.q, ctx.mod
    if len(x) != q:
        raise ValueError(f"need {q} values, got {len(x)}")
    down, up = _chirps(ctx)
    u = [xk * d % mod for xk, d in zip(x, down)]
    w = cyclic_convolve(u[::-1], up, -1)
    return [-d * c % mod for d, c in zip(down, [-w[-1], *w])]


def _character_sums(ctx: PadicCtx, pairs) -> list[int]:
    """sum of w omega(g)^(c k) over the pairs (k, w), mod p^K, for every c:
    the O(p) histogram of the weights over k mod p-1, then one
    teichmuller_dft. A pair (dlog x, w) contributes w omega^c(x), and
    (-dlog x, w) contributes w omega-bar^c(x)."""
    q = ctx.q
    h = [0] * q
    for k, w in pairs:
        h[k % q] += w
    return teichmuller_dft(ctx, h)


def gamma_p(ctx: PadicCtx, x: int | Fraction) -> int:
    """Morita's Gamma_p at an integer or a rational in Z_p, mod p^K, from
    the context's engine, built on the first call; it keeps no memo.

    Both reduce to the integer n = x mod p^K, a rational through
    ctx.residue; continuity, |Gamma_p(x) - Gamma_p(y)| <= |x - y| for odd p,
    makes that exact mod p^K with no guard digit. Anything else (a float, a
    Decimal) raises TypeError.
    """
    n = (ctx.residue(x.numerator, x.denominator) if isinstance(x, Fraction)
         else operator.index(x) % ctx.mod)
    return ctx.engine.at_int(n)


def _gamma_run(ctx: PadicCtx, idx) -> list[int]:
    """Gamma_p(i/(12(p-1))) mod p^K at each index i of idx into the context's
    row, each entry computed on its first read. Callers build every i in
    [0, 12(p-1)) (_gamma_at checks its num/den): a negative i would read
    another entry, and one past the row raises IndexError."""
    row = ctx._row
    vals = [row[i] for i in idx]
    if None in vals:
        at, step, mod = ctx.engine.at_int, ctx._row_step, ctx.mod
        for k, i in enumerate(idx):
            if row[i] is None:
                row[i] = at(i * step % mod)
            vals[k] = row[i]
    return vals


def _gamma_at(ctx: PadicCtx, num: int, den: int) -> int:
    """Gamma_p(num/den) mod p^K for 0 <= num < den, den | 12(p-1), else
    ValueError: a one-entry _gamma_run, unless filled (no unit is 0)."""
    step, rest = divmod(12 * ctx.q, den)
    if rest or not 0 <= num < den:
        raise ValueError(f"{num}/{den} is not in [0, 1) over a divisor of "
                         f"12(p-1) = {12 * ctx.q}")
    return ctx._row[num * step] or _gamma_run(ctx, (num * step,))[0]


# ---------------------------------------------------------------------------
# Gauss sums

def gauss_product(ctx: PadicCtx, js, c: int = 1) -> tuple[int, int]:
    """c prod_j g(omega-bar^j) as (deg, unit), the monomial pi^deg * unit of
    Z[pi]/(pi^(p-1) + p) with unit mod p^K, by Gross-Koblitz:
    g(omega-bar^j) = -pi^j Gamma_p(j/(p-1)). Each j is reduced mod p-1, and
    pi^(p-1) = -p folds the degree overflow into the unit. A zero unit sits
    at degree 0, so two zero products compare equal. At j = 0 the formula
    yields -1, the direct value g(eps) = sum of psi over F_p^*.
    """
    q, mod = ctx.q, ctx.mod
    deg, unit = 0, c
    for j in js:
        j %= q
        deg += j
        unit = -unit * _gamma_at(ctx, j, q) % mod
    e, deg = divmod(deg, q)
    unit = unit * pow(-ctx.p, e, mod) % mod
    return (deg, unit) if unit else (0, 0)


def jacobi_sum(ctx: PadicCtx, a: CharIdx, b: CharIdx) -> int:
    """J(omega^a, omega^b) = sum over y of omega^a(y) omega^b(1-y), mod p^K.

    The summand vanishes at y in {0, 1} under the chi(0) = 0 convention,
    whatever a and b are.
    """
    p, q, pw, dlog = ctx.p, ctx.q, ctx.pw, ctx.field.dlog
    return sum([pw[(a * dlog[y] + b * dlog[p + 1 - y]) % q]
                for y in range(2, p)]) % ctx.mod


def _pi_fingerprint(x: tuple[int, int]) -> str:
    """Compact printable form of a gauss_product: pi^deg*unit, or 0."""
    deg, unit = x
    return f"pi^{deg}*{unit}" if unit else "0"


def gk_consistency_check(ctx: PadicCtx, a: CharIdx, b: CharIdx) -> VerificationRecord:
    """g(wbar^a) g(wbar^b) = J(wbar^a, wbar^b) g(wbar^(a+b)) in the pi-ring.

    The pi-exponent excess a + b - ((a+b) mod (p-1)) is 0 or p-1 and turns
    into a factor (-p)^0 or (-p)^1 inside the monomial reduction. When
    a + b = 0 the right side degenerates and the product must instead equal
    the scalar (-1)^a p, the norm relation for conjugate characters.
    """
    q = ctx.q
    a %= q
    b %= q
    if a == 0 or b == 0:
        raise ValueError("a and b must be nontrivial")
    lhs = gauss_product(ctx, (a, b))
    if (a + b) % q == 0:
        rhs = gauss_product(ctx, (), (-1) ** a * ctx.p)
        detail = "conjugate-pair norm"
    else:
        jv = jacobi_sum(ctx, (q - a) % q, (q - b) % q)
        rhs = gauss_product(ctx, (a + b,), jv)
        detail = f"pi-excess={(a + b) // q}"
    return VerificationRecord(ctx.p, f"gk-j{a}-j{b}", _pi_fingerprint(lhs),
                              _pi_fingerprint(rhs), lhs == rhs, detail=detail)


def hasse_davenport_check(ctx: PadicCtx, m: int, sidx: CharIdx) -> VerificationRecord:
    """prod_{i<m} g(psi chi^i) = g(psi^m) psi^(-m)(m) prod_{0<i<m} g(chi^i)
    for chi of exact order m, all in the pi-ring."""
    p, q = ctx.p, ctx.q
    if m not in (2, 3):
        raise ValueError("m must be 2 or 3")
    if q % m:
        raise ValueError(f"m={m} does not divide p-1={q}")
    step = q // m
    sidx %= q
    lhs = gauss_product(ctx, [sidx + i * step for i in range(m)])
    # psi^(-m)(m) with psi = omega-bar^sidx is omega^(m sidx)(m)
    rhs = gauss_product(ctx, [m * sidx, *(i * step for i in range(1, m))],
                        ctx.omega(m % p, m * sidx % q))
    return VerificationRecord(p, f"hd-m{m}-s{sidx}", _pi_fingerprint(lhs),
                              _pi_fingerprint(rhs), lhs == rhs)


def gamma_product_checks(ctx: PadicCtx, t: int, j: CharIdx) -> VerificationRecord:
    """The three Gamma_p product formulas at multiplicity t and index j.

    (1) prod_{h<t} Gamma_p((x+h)/t) = omega(t)^((1-x)(1-p)) Gamma_p(x)
        prod_{0<h<t} Gamma_p(h/t), at x = j/(p-1);
    (2) the same collapsed through x = <tj/(p-1)>, picking up omega(t^(tj));
    (3) the mirror of (2) with j -> -j.

    Formula (2) is (1) at j' = tj mod (p-1), and (3) is (1) at -tj: with
    tj = f(p-1) + j', <tj/(p-1) + h/t> is (j' + ((f+h) mod t)(p-1))/(t(p-1)),
    and (f+h) mod t runs over 0..t-1 with h: the same row entries.
    """
    p, q, mod = ctx.p, ctx.q, ctx.mod
    if t not in (2, 3, 4, 6, 12):
        raise ValueError("t must be one of 2, 3, 4, 6, 12")
    j %= q
    # (x + h)/t at x = i/(p-1) is row entry 12 i/t + h s, h/t is h s
    s = 12 * q // t
    const = math.prod(_gamma_run(ctx, range(s, 12 * q, s)))

    def formula1(i: int) -> bool:
        lhs = math.prod(_gamma_run(ctx, range(12 // t * i, 12 * q, s)))
        # (1-x)(1-p) = i - (p-1) when x = i/(p-1), an integer
        rhs = ctx.omega(t % p, i) * _gamma_at(ctx, i, q) * const
        return (lhs - rhs) % mod == 0

    ok1, ok2, ok3 = (formula1(i) for i in (j, t * j % q, -t * j % q))
    return VerificationRecord(
        p, f"gamma-prod-t{t}-j{j}", (ok1, ok2, ok3), (True, True, True),
        ok1 and ok2 and ok3,
        detail=f"prod1={ok1} new-prod1={ok2} prod2={ok3}")


# ---------------------------------------------------------------------------
# rational reconstruction

def _centered(residue: int, mod: int, bound: int, what: str) -> int:
    x = residue % mod
    if x > mod // 2:
        x -= mod
    if abs(x) > bound:
        raise ArithmeticError(
            f"{what}: |value| bound {bound} exceeds p^K/2; raise K")
    return x


# ---------------------------------------------------------------------------
# Greene functions via Jacobi-sum tables

@per_prime
def _jacobi_table(ctx: PadicCtx) -> tuple[int, ...]:
    """J_c = J(phi omega^c, omega-bar^c) for all c; the summand at y is
    phi(y) omega^c(y/(1-y)). jacobi_sum is the literal oracle."""
    p, dlog, qr = ctx.p, ctx.field.dlog, ctx.field.qr
    return tuple(_character_sums(
        ctx, ((dlog[y] - dlog[p + 1 - y], qr[y]) for y in range(2, p))))


@per_prime
def _greene_S_table(ctx: PadicCtx) -> tuple[int, ...]:
    """S(lam) for every lam mod p, entry 0 unused: one DFT of J_c^2, read
    at dlog(lam). The greene and prop6.6 suites of a prime share it."""
    p, mod, dlog = ctx.p, ctx.mod, ctx.field.dlog
    F = teichmuller_dft(ctx, [j * j % mod for j in _jacobi_table(ctx)])
    return (0, *(_centered(F[dlog[lam]], mod, (p - 1) * p, f"S({lam})")
                 for lam in range(1, p)))


def _greene_S(ctx: PadicCtx, lam: int) -> int:
    """S(lam) = p(p-1) 2F1(lam) = sum_c J_c^2 omega^c(lam), exact integer;
    the literal O(p) sum at one lam, the oracle of _greene_S_table."""
    p, q = ctx.p, ctx.q
    J = _jacobi_table(ctx)
    dl = ctx.field.dlog[lam % p]
    tot = 0
    for c in range(q):
        tot += J[c] * J[c] % ctx.mod * ctx.pw[c * dl % q]
    return _centered(tot, ctx.mod, (p - 1) * p, f"S({lam})")


def greene_2f1_fraction(ctx: PadicCtx, lam: int) -> Fraction:
    """2F1(lambda) = (p/(p-1)) sum_chi binom(phi chi, chi)^2 chi(lambda),
    the exact rational; 0 at lambda = 0 mod p."""
    if lam % ctx.p == 0:
        return Fraction(0)
    return Fraction(_greene_S_table(ctx)[lam % ctx.p], ctx.p * (ctx.p - 1))


def _greene_trace_misses(ctx: PadicCtx, aps) -> int:
    """How many lam not 0, 1 break Greene's trace relation p 2F1(lam) =
    -phi(-1) a_p(lam), read in integers as S(lam) = -phi(-1) (p-1) a_p(lam)
    against the traces aps."""
    p, S = ctx.p, _greene_S_table(ctx)
    unit = -ctx.field.qr[p - 1] * (p - 1)
    return sum(S[lam] != unit * aps[lam] for lam in range(2, p))


def greene_check(ctx: PadicCtx) -> VerificationRecord:
    """The trace relation at every lam; lhs counts the lam where it fails."""
    bad = _greene_trace_misses(ctx, ap_table(ctx.field))
    return VerificationRecord(ctx.p, "greene-trace", bad, 0, not bad)


def _j3_sum(ctx: PadicCtx, w: list[int]) -> int:
    """sum_c omega^c(-1) J_c^3 w_c mod p^K; omega^c(-1) = (-1)^c."""
    return sum((-1) ** c * pow(j, 3, ctx.mod) * w[c]
               for c, j in enumerate(_jacobi_table(ctx))) % ctx.mod


def _s3_integer(ctx: PadicCtx) -> int:
    """S3 = p^2(p-1) 3F2(1) = sum_c chi_c(-1) J_c^3, exact integer."""
    p = ctx.p
    bound = (p - 1) * math.isqrt(p ** 3) + p
    return _centered(_j3_sum(ctx, [1] * ctx.q), ctx.mod, bound, "S3")


# ---------------------------------------------------------------------------
# nGn evaluator (Definition-style a-sum over Gamma_p quotients)

# the (a, b) parameter lists of each nGn family, by the name gfun reads
NGN_FAMILIES = {
    "3g3": ((Fraction(5, 6), Fraction(1, 12), Fraction(7, 12)),
            (Fraction(1, 3),) * 3),
    "9g9": (tuple(Fraction(k, 12) for k in (1, 2, 3, 5, 6, 7, 9, 10, 11)),
            (Fraction(1, 3),) * 3 + (Fraction(2, 3),) * 3
            + (Fraction(0),) * 3),
}


class NgnTable(NamedTuple):
    """The a-sum of one nGn family at one prime, on the context ctx it was
    built on. Its per-a coefficients do not depend on t, so one table serves
    a whole lambda-sweep, and values holds their sums at every t, one DFT
    taken once: p^scale nGn mod p^K, where the p^scale, scale = max(0,
    -min_a E_a), makes every coefficient p-integral."""
    ctx: PadicCtx
    scale: int
    coeffs: tuple[int, ...]
    values: list[int]


def _ngn_exponents(family: str, q: int) -> tuple[list, list, list[int], int]:
    """A family's tops (an, ad), a_k = an/ad; its distinct bottoms (bn, bd,
    e), <-b_k> = bn/bd repeated e times; E_a = -sum_k (floor(a_k - al) +
    floor(<-b_k> + al)) at al = a/q, in integers over ad q and bd q, for
    every a mod q = p-1; and scale = max(0, -min_a E_a)."""
    a_list, b_list = NGN_FAMILIES[family]
    nbs = [-b % 1 for b in b_list]
    tops = [(ak.numerator, ak.denominator) for ak in a_list]
    bots = [(nb.numerator, nb.denominator, nbs.count(nb))
            for nb in dict.fromkeys(nbs)]
    Es = [-sum((an * q - a * ad) // (ad * q) for an, ad in tops)
          - sum(e * ((bn * q + a * bd) // (bd * q)) for bn, bd, e in bots)
          for a in range(q)]
    return tops, bots, Es, max(0, -min(Es))


@per_prime
def _ngn_table(ctx: PadicCtx, family: str) -> NgnTable:
    """The table of one family of NGN_FAMILIES at ctx's prime and own K:
    for n pairs (a_k, b_k) and every a mod p-1, with al = a/(p-1),
        c_a = -(1/(p-1)) (-1)^(a n + E_a) p^(E_a + scale) G(a) / G(0),
    G(a) = prod_k Gamma_p(<a_k - al>) Gamma_p(<-b_k + al>). Row 0
    normalises: its arguments are exactly <a_k> and <-b_k>. Each distinct
    parameter is one row run over a, at 12 an q/ad - 12 a or 12 bn q/bd +
    12 a, and a bottom repeated e times enters the product e times: 3G3's
    three bottom factors are one run, 9G9's nine are three.
    Every step is a ring operation: a larger K's table is this one mod p^K."""
    p, q, mod = ctx.p, ctx.q, ctx.mod
    tops, bots, Es, scale = _ngn_exponents(family, q)
    n, size = len(tops), 12 * q
    cols = [_gamma_run(ctx, [(12 * an * q // ad - 12 * a) % size
                             for a in range(q)]) for an, ad in tops]
    for bn, bd, e in bots:
        cols += [_gamma_run(ctx, [(12 * bn * q // bd + 12 * a) % size
                                  for a in range(q)])] * e
    G = [math.prod(c) % mod for c in zip(*cols)]
    norm = -pow(q * G[0], -1, mod)
    # the sign is a parity, as (-1) ** E is a float at E < 0; pow raises
    # at a negative E + scale, since p has no inverse mod p^K
    coeffs = tuple((-norm if (a * n + E) % 2 else norm) * g
                   * pow(p, E + scale, mod) % mod
                   for a, (g, E) in enumerate(zip(G, Es)))
    # sum_a coeffs[a] omega-bar^a(t), at index -dlog(t)
    return NgnTable(ctx, scale, coeffs, teichmuller_dft(ctx, list(coeffs)))


def _ngn_at(table: NgnTable, t: int) -> int:
    """p^scale nGn(...|t) mod p^K, read from the table; t = 0 mod p raises."""
    ctx = table.ctx
    if t % ctx.p == 0:
        raise ValueError("t = 0 rejected")
    return table.values[-ctx.field.dlog[t % ctx.p] % ctx.q]


def ngn_evaluate(p: int, family: str, t: int, K: int) -> tuple | None:
    """The full a-sum of the hypergeometric G-function of one family at t,
    with exact (-p)-power bookkeeping, as (valuation v, unit); None when it
    is 0 mod p^K, as at every t = 0 mod p, where each omega-bar(t) term
    vanishes. The unit is known mod p^(K - max(0, v)): a positive valuation
    spends v of the K digits. Its one table and context are at K + scale."""
    if t % p == 0:
        return None
    scale = _ngn_exponents(family, p - 1)[3]
    table = _ngn_table(make_padic_ctx(p, K + scale), family)
    raw = _ngn_at(table, t)
    if raw == 0:
        return None
    v = 0
    while raw % p == 0:
        raw //= p
        v += 1
    return v - table.scale, raw % p ** K


# ---------------------------------------------------------------------------
# the section-6 identity checks

def _gk_I_weights(ctx: PadicCtx) -> list[int]:
    """w_a = sum_lam phi(lam) omega-bar^a(4(1-lam)/lam) mod p^K for every a,
    at -dlog(4(1-lam)/lam) = dlog lam - dlog 4 - dlog(1-lam)."""
    p, dlog, qr = ctx.p, ctx.field.dlog, ctx.field.qr
    return _character_sums(ctx, ((dlog[lam] - dlog[4] - dlog[p + 1 - lam],
                                  qr[lam]) for lam in range(2, p)))


@per_prime
def gk_I_integer(ctx: PadicCtx) -> int:
    """I = sum_a g(phi omega^a) g(omega-bar^a)^3 g(phi omega^(2a))
           * sum_lam phi(lam) omega-bar^a(4(1-lam)/lam), exactly.

    Every a-term is degree-0 in the pi-ring (checked); |I| is within the
    Weil bound (p-1)^2 p^(5/2), so K = 6 always reconstructs the integer.
    """
    p, q, mod = ctx.p, ctx.q, ctx.mod
    bound = (p - 1) ** 2 * (math.isqrt(p ** 5) + 1)
    if 2 * bound >= mod:
        raise ArithmeticError("raise K: Weil bound does not clear p^K/2")
    g = _gamma_run(ctx, range(0, 12 * q, 12))
    tot = 0
    for a, w in enumerate(_gk_I_weights(ctx)):
        b, c = (q // 2 - a) % q, (q // 2 - 2 * a) % q
        e, deg = divmod(b + 3 * a + c, q)
        if deg:
            raise ArithmeticError("Gauss-sum product not degree-0")
        # five factors -Gamma_p(j/(p-1)), and pi^(e(p-1)) = (-p)^e
        tot -= g[b] * g[a] ** 3 * g[c] % mod * (-p) ** e * w
    return _centered(tot % mod, mod, bound, "I")


def prop64_check(ctx: PadicCtx) -> VerificationRecord:
    """Fourth-moment inner sum against the psi_6-twisted 3G3 sum, p = 1 mod 6.

    Four readings are evaluated: twist lam(1-lam^2) (as printed) or
    lam(1-lam)^2 (the form the o(1) theorem uses), and prefactor
    p^3(p-1) psi6(-2) phi(2) (as printed) or -p^2(p-1) psi6(-16) J(psi3,psi3)
    (forced by the Gamma_p product formulas, which make the printed constant
    off by J(psi3,psi3)/(-p) and the duplication step). The record's detail
    reports all four; match means the corrected reading holds exactly.
    """
    p, q, mod = ctx.p, ctx.q, ctx.mod
    if p % 6 != 1:
        raise ValueError(f"p must be 1 mod 6, got {p}")
    I = gk_I_integer(ctx)
    table = _ngn_table(ctx, "3g3")
    if table.scale != 2:
        raise ArithmeticError(f"3G3's scale is {table.scale}, not 2")

    def psi6(x):
        return ctx.omega(x, q // 6)

    acc_printed = 0
    acc_theorem = 0
    for lam in range(2, p):
        val = _ngn_at(table, (lam - 1) * pow(lam, p - 2, p))
        acc_printed = (acc_printed + psi6(lam * (1 - lam * lam)) * val) % mod
        acc_theorem = (acc_theorem + psi6(lam * (1 - lam) ** 2) * val) % mod
    # acc = p^2 Sigma mod p^K, so each constant drops that p^2: printed,
    # I = p^3 (p-1) psi6(-2) phi(2) Sigma; corrected,
    # I = -p^2 (p-1) psi6(-16) J(psi3, psi3) Sigma
    lhs = I % mod
    consts = (("printed", p * (p - 1) * psi6(-2) * ctx.field.qr[2]),
              ("corrected", -(p - 1) * psi6(-16)
               * jacobi_sum(ctx, q // 3, q // 3)))
    twists = (("printed", acc_printed), ("theorem", acc_theorem))
    flags = {f"{cn}-const/{tn}-twist": lhs == c * acc % mod
             for cn, c in consts for tn, acc in twists}
    match = flags["corrected-const/theorem-twist"]
    return VerificationRecord(
        p, "prop6.4", I, "see detail", match,
        detail=" ".join(f"{k}={v}" for k, v in flags.items()))


def prop65_check(ctx: PadicCtx) -> VerificationRecord:
    """I against p(p-1) sum_lam phi(lam^(1/3) - 1) 9G9(lam), p = 2 mod 3.

    Both the bare prefactor and the phi(-1)-dressed variant are evaluated;
    the bare one is the identity (p = 11 separates them, p = 5 does not).
    """
    p, q, mod = ctx.p, ctx.q, ctx.mod
    if p % 3 != 2:
        raise ValueError(f"p must be 2 mod 3, got {p}")
    I = gk_I_integer(ctx)
    table = _ngn_table(ctx, "9g9")
    qr = ctx.field.qr
    inv3 = pow(3, -1, q)
    acc = 0
    for lam in range(1, p):
        w = qr[(pow(lam, inv3, p) - 1) % p]
        if w == 0:
            continue
        acc = (acc + w * _ngn_at(table, lam)) % mod
    lhs = I * p ** table.scale % mod
    rhs = p * (p - 1) * acc % mod
    plain = lhs == rhs
    dressed = lhs == rhs * qr[p - 1] % mod
    return VerificationRecord(
        p, "prop6.5", I, "see detail", plain,
        detail=f"plain={plain} with-phi(-1)={dressed} scale={table.scale}")


def _prop66_weights(ctx: PadicCtx) -> list[int]:
    """w_c = sum_t phi(1+t) omega-bar^c(1-t^2) mod p^K for every c; phi(1+t)
    is nonzero wherever 1 - t^2 = (1-t)(1+t) is."""
    p, dlog, qr = ctx.p, ctx.field.dlog, ctx.field.qr
    return _character_sums(ctx, ((-dlog[(1 - t * t) % p], qr[(1 + t) % p])
                                 for t in range(p) if (1 - t * t) % p))


def prop66_check(ctx: PadicCtx) -> VerificationRecord:
    """The exact backbone behind the second-moment evaluation:
    trace relation, the three intermediate equations, and the assembled
    identity for sum_lam phi(lam) a_p(lam)^2, all as exact rationals."""
    p = ctx.p
    qr = ctx.field.qr

    def phi(x):
        return qr[x % p]

    S, aps = _greene_S_table(ctx), ap_table(ctx.field)
    trace_ok = not _greene_trace_misses(ctx, aps)
    S3 = _s3_integer(ctx)
    F32 = Fraction(S3, p * p * (p - 1))

    # p3B = sum_c chi_c(-1) J_c^3 w_c with w_c = sum_t phi(1+t) chi_c-bar(1-t^2)
    bound_b = (p - 1) * p * (math.isqrt(p ** 3) + 1)
    p3B = _centered(_j3_sum(ctx, _prop66_weights(ctx)), ctx.mod, bound_b,
                    "p3B")
    B = Fraction(p3B, p ** 3)
    I = gk_I_integer(ctx)

    inv2 = pow(2, p - 2, p)
    Sphi = sum(phi(lam) * aps[lam] ** 2
               for lam in range(2, p) if lam != p - 1)
    # 2F1(lam) = S(lam)/(p(p-1)), so A's sum of 2F1^2 is one integer sum
    pq = p * (p - 1)
    F1h, F1m = Fraction(S[inv2], pq), Fraction(S[p - 1], pq)
    A_def = Fraction(phi(2) * sum(phi(1 - t) * S[(1 - t) * inv2 % p] ** 2
                                  for t in range(2, p - 1)), pq * pq)
    eqn6 = Sphi == (p * p * phi(2) * F1h ** 2 - p * p * phi(-1) * F1m ** 2
                    + p * p * A_def)
    eqn7 = A_def == (Fraction(-1, p) - Fraction(phi(2), p) - phi(-2) * F32
                     + Fraction(phi(-2) * p, p - 1) * B)
    eqn9 = p * p3B == phi(-2) * (I - pq)
    assembled = Sphi == (p * p * phi(2) * F1h ** 2 - p * p * phi(-1) * F1m ** 2
                         - p * p * phi(-2) * F32 + Fraction(I, pq)
                         - p - p * phi(2) - 1)
    slack = Sphi - p * p * phi(2) * F1h ** 2
    match = trace_ok and eqn6 and eqn7 and eqn9 and assembled
    return VerificationRecord(
        p, "prop6.6", Sphi, "backbone", match,
        ratio=abs(float(slack)) / p ** 2,
        detail=f"trace={trace_ok} eqn6={eqn6} eqn7={eqn7} eqn9={eqn9} "
               f"assembled={assembled} slack/p^2={float(slack) / p ** 2:.4f}")


def theorem62_record(ctx: PadicCtx) -> VerificationRecord:
    """|T(p)| for the weighted 3G3 average, normalized by the magnitude of
    its stated prefactor p^3(p-1) (the unit characters contribute nothing to
    absolute value); p must be 1 mod 6.  The corrected-prefactor
    normalization |I|/(p^(5/2)(p-1)), which uses |J(psi3,psi3)| = sqrt(p),
    rides along in detail; it hovers at Theta(1), which is exactly the
    sqrt(p) gap between the two constants.
    """
    p = ctx.p
    if p % 6 != 1:
        raise ValueError(f"p must be 1 mod 6, got {p}")
    I = gk_I_integer(ctx)
    return VerificationRecord(
        p, "thm6.2", abs(I), 0, True, ratio=abs(I) / (p ** 3 * (p - 1)),
        detail=f"corrected-norm={abs(I) / (p ** 2.5 * (p - 1)):.6g}")


def theorem63_record(ctx: PadicCtx) -> VerificationRecord:
    """|T9(p)|/p^2 for T9(p) = sum phi(lam^(1/3)-1) 9G9(lam) = I/(p(p-1));
    p must be 2 mod 3."""
    p = ctx.p
    if p % 3 != 2:
        raise ValueError(f"p must be 2 mod 3, got {p}")
    I = gk_I_integer(ctx)
    t9 = abs(I) / (p * (p - 1))
    return VerificationRecord(p, "thm6.3", abs(I), 0, True, ratio=t9 / p ** 2,
                              detail=f"|T9|={t9:.6g}")


def sweep_trend_ok(records: list[VerificationRecord]) -> bool:
    """The operationalized o(.) claim: the normalized ratio at the largest
    swept prime is below the ratio at the smallest."""
    if len(records) < 2:
        raise ValueError("need at least two primes for a trend")
    return records[-1].ratio < records[0].ratio
