import hashlib
import os
import random
import subprocess
import sys
import weakref
from decimal import Decimal
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ntlab.ecurve import ap_legendre, ap_table
from ntlab.ffield import make_field_ctx, release_tables
from ntlab import padic as pa
from ntlab.primes import primerange


@pytest.fixture(scope="module")
def pctx13():
    return pa.make_padic_ctx(13, 4)


def test_one_context_whether_K_is_defaulted_positional_or_keyword():
    # make_padic_ctx fills K before it calls its per_prime builder, which
    # keys on (p, K) alone, so the forms neither build three contexts nor
    # evict one another
    pa.make_padic_ctx(7)
    ctx = pa.make_padic_ctx(p=13)
    assert pa.make_padic_ctx(13) is ctx
    assert pa.make_padic_ctx(13, 6) is ctx
    assert pa.make_padic_ctx(13, K=6) is ctx
    assert pa.make_padic_ctx(p=13, K=6) is ctx
    assert ctx.K == 6
    assert pa.make_padic_ctx(13, 4) is not ctx
    # a call make_padic_ctx's own signature cannot take raises
    with pytest.raises(TypeError):
        pa.make_padic_ctx(13, k=6)
    with pytest.raises(TypeError):
        pa.make_padic_ctx(13, 6, K=6)


def test_ctx_validation():
    with pytest.raises(ValueError):
        pa.make_padic_ctx(4, 3)
    with pytest.raises(ValueError):
        pa.make_padic_ctx(3, 3)
    with pytest.raises(ValueError):
        pa.make_padic_ctx(7, 0)


# (5, 8) and (7, 8): the engine's degree range holds degrees j with p - 1 | j,
# where power sums sum_{t<m} t^j would carry p in a denominator (von Staudt);
# the Newton-form block sum has no denominator at any p
@pytest.mark.parametrize("p,K", [(5, 4), (7, 6), (13, 4), (97, 3), (5, 8),
                                 (7, 8)])
def test_gamma_block_engine_against_literal_product(p, K):
    # the block method serves every n, the smallest included
    ctx = pa.make_padic_ctx(p, K)
    edge = 64 * p
    for n in (*range(2 * p + 1), edge - 1, edge, edge + 3, edge + p - 1,
              65 * p, 10 ** 4 + 11):
        assert pa.gamma_p(ctx, n) == pa.gamma_p_direct(p, K, n), n


def test_engine_reads_the_literal_product_once_at_build(monkeypatch):
    # the self-test takes the product once, to 64 p, in one running product
    # reduced at every factor; at_int never takes it, at any n
    import math
    calls = []

    def direct(p, K, n, real=pa.gamma_p_direct):
        calls.append((p, K, n))
        return real(p, K, n)

    def no_prod(*args, **kwargs):
        raise AssertionError("math.prod in an engine build")

    monkeypatch.setattr(pa, "gamma_p_direct", direct)
    monkeypatch.setattr(math, "prod", no_prod)
    for p, K in ((5, 8), (13, 4), (67, 7)):
        eng = pa._GammaEngine(p, K)
        assert calls == [(p, K, 64 * p)]
        calls.clear()
        for n in (*range(2 * p + 1), 64 * p, 10 ** 30):
            eng.at_int(n)
        assert not calls


@pytest.mark.parametrize("p,K", [(5, 8), (7, 8), (13, 4)])
def test_gamma_functional_equation_far_beyond_the_literal_product(p, K):
    # Gamma_p(n+1) = -n Gamma_p(n) for p not dividing n, -Gamma_p(n) else;
    # n ~ 10^30 puts C(m, k+1) near 10^(30 (k+1)) in the block sums
    eng = pa._GammaEngine(p, K)
    ctx = pa.make_padic_ctx(p, K)
    mod = p ** K
    base = 10 ** 30
    vals = [eng.at_int(n) for n in range(base, base + 2 * p + 2)]
    for n, (g, g1) in enumerate(zip(vals, vals[1:]), start=base):
        assert g1 == (-(n if n % p else 1) * g) % mod, n
    # continuity: the public entry point reduces n mod p^K first
    assert pa.gamma_p(ctx, base) == vals[0]


# p = 5, 7 and 13 are the primes where power sums of the engine's degrees
# would need p in a denominator; 67 is a small-p benchmark prime. 5, 13 and
# 563 are the Wilson primes, (p-1)! = -1 mod p^2, where h = -R - 1 starts at
# v_p >= 2 at t = 0; the truncation lemma uses only v_p(h) >= 1
ENGINE_CASES = [(5, 8), (7, 8), (13, 4), (67, 7), (563, 4)]


@pytest.fixture(scope="module")
def engines():
    return {pk: pa._GammaEngine(*pk) for pk in ENGINE_CASES}


@pytest.mark.parametrize("m", [0, 1, 2, 7, 64, 300, 1000])
def test_newton_block_sum_against_brute_force(engines, m):
    # the block reader is the product of the m whole blocks
    # -R(t) = -prod_{0<i<p} (t p + i), each taken literally, factor by factor
    for (p, K), eng in engines.items():
        mod = p ** K
        brute = 1
        for t in range(m):
            block = -1
            for i in range(1, p):
                block = block * (t * p + i) % mod
            brute = brute * block % mod
        assert eng._blocks(m) == brute, (p, K)


def _literal_blocks(p: int, mod: int, count: int) -> list[int]:
    """Q(t) = prod_{s<t} -prod_{0<i<p} (s p + i) mod `mod` for t < count,
    factor by factor."""
    vals = [1]
    for t in range(count - 1):
        block = -1
        for i in range(1, p):
            block = block * (t * p + i) % mod
        vals.append(vals[-1] * block % mod)
    return vals


def _differences(vals: list[int]) -> list[int]:
    """Delta^k v(0) for k < len(vals)."""
    diffs = []
    while vals:
        diffs.append(vals[0])
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return diffs


def _newton_binomial(p: int, K: int, m: int) -> int:
    """sum_{k<2K-1} D_k C(m, k) mod p^K through exact binomial divisions,
    with D_k differenced from literal block products: the Newton form of
    Q(m) = Gamma_p(m p), sharing no coefficient with the engine."""
    mod = p ** K
    tot = 0
    binom = 1  # C(m, k) at k = 0
    for k, dk in enumerate(_differences(_literal_blocks(p, mod, 2 * K - 1))):
        if k:
            binom, rem = divmod(binom * (m - k + 1), k)
            assert not rem
        tot = (tot + dk * (binom % mod)) % mod
    return tot


def _tail_loop(eng, m: int, r: int) -> int:
    """prod_{0<i<r} (m p + i) mod p^K, factor by factor."""
    tail = 1
    for i in range(1, r):
        tail = tail * (m * eng.p + i) % eng.mod
    return tail


# p | F = (2K-2)! at p = 5 for every K here, at 7 and 11 for K = 7 and 9,
# and at 13 for K = 9; 563 is the largest Wilson prime known
ORACLE_CASES = [(p, K) for p in (5, 7, 11, 13, 53, 67) for K in (4, 7, 9)]
ORACLE_CASES.append((563, 4))


@pytest.fixture(scope="module")
def oracle_engines():
    return {pk: pa._GammaEngine(*pk) for pk in ORACLE_CASES}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORACLE_CASES), st.integers(0, 10 ** 40))
def test_horner_block_sum_against_binomial_oracle(oracle_engines, pk, m):
    eng = oracle_engines[pk]
    assert eng._blocks(m) == _newton_binomial(*pk, m)


@pytest.mark.parametrize("pk", ORACLE_CASES)
def test_prefix_polynomial_tails_against_the_loop(oracle_engines, pk):
    eng = oracle_engines[pk]
    for m in (64, 65, 12345, 10 ** 30 + 7):
        for r in range(eng.p):
            assert eng._tail(m, r) == _tail_loop(eng, m, r), (m, r)


def _blocks_reduced_each_step(eng, m: int) -> int:
    """_blocks as one Horner pass reduced mod p^K F at every step, then
    divided by F."""
    x, tot = m % eng._fmod, 0
    for c in eng._newton:
        tot = (tot * x + c) % eng._fmod
    q, rem = divmod(tot, eng._F)
    assert not rem
    return q


def _tail_reduced_each_step(eng, m: int, r: int) -> int:
    """_tail as one Horner pass reduced mod p^K at every step."""
    z, tot = m * eng.p % eng.mod, 0
    for c in eng._tails[r]:
        tot = (tot * z + c) % eng.mod
    return tot


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ENGINE_CASES), st.integers(0, 10 ** 40),
       st.integers(0, 562))
def test_horner_reduced_once_equals_the_per_step_reduced_forms(
        engines, pk, m, r):
    eng = engines[pk]
    r %= eng.p
    assert eng._blocks(m) == _blocks_reduced_each_step(eng, m)
    assert eng._tail(m, r) == _tail_reduced_each_step(eng, m, r)
    assert 0 <= eng._tail(m, r) < eng.mod


@pytest.mark.parametrize("p", [5, 7, 13])
@pytest.mark.parametrize("K", [1, 4, 8])
def test_literal_product_walks_its_blocks_like_the_per_factor_loop(p, K):
    # gamma_p_direct skips each multiple of p by its block bounds; the
    # oracle tests every factor
    mod = p ** K

    def per_factor(n):
        v = 1
        for i in range(1, n):
            if i % p:
                v = v * i % mod
        return (-v if n % 2 else v) % mod

    for n in (*range(3 * p + 3), 64 * p):
        assert pa.gamma_p_direct(p, K, n) == per_factor(n), n


@pytest.mark.parametrize("p", [5, 7, 13, 563])
@pytest.mark.parametrize("K", [2, 4, 6])
def test_newton_differences_of_the_blocks_gain_a_digit_every_two_steps(p, K):
    # v_p(Delta^k Q(0)) >= ceil(k/2), the lemma that lets the engine cut the
    # Newton form of Q(m) = Gamma_p(m p) at k < 2K - 1; read mod p^(2K),
    # the deepest bound checked here, ceil((4K-1)/2) = 2K
    mod = p ** (2 * K)
    diffs = _differences(_literal_blocks(p, mod, 4 * K))
    assert len(diffs) == 4 * K
    for k, dk in enumerate(diffs):
        assert dk % p ** ((k + 1) // 2) == 0, k


@st.composite
def _rational_in_zp(draw):
    p = draw(st.sampled_from([5, 7, 11, 13]))
    kmin = next(k for k in range(1, 9) if p ** k > 64 * p)  # p^K > 64 p
    K = draw(st.integers(kmin, kmin + 1))
    b = draw(st.integers(1, 10 ** 6).filter(lambda b: b % p))
    a = draw(st.integers(-10 ** 9, 10 ** 9))
    return p, K, Fraction(a, b)


@settings(max_examples=60, deadline=None)
@given(_rational_in_zp())
def test_gamma_at_rationals_against_literal_product(case):
    # the engine's input a/b mod p^K reaches past 64 p, where its self-test
    # starts, and the small-p degree cases; the oracle reads a/b mod p^(K+1)
    p, K, x = case
    ctx = pa.make_padic_ctx(p, K)
    big = p ** (K + 1)
    n = x.numerator * pow(x.denominator, -1, big) % big
    assert pa.gamma_p(ctx, x) == pa.gamma_p_direct(p, K, n)


def test_gamma_rejects_arguments_it_would_truncate():
    # int(x) would send both to Gamma_p(0) = 1, at p = 13 as anywhere
    ctx = pa.make_padic_ctx(13, 4)
    for x in (0.5, Decimal("2.5"), Decimal("2"), 2.0, "2"):
        with pytest.raises(TypeError):
            pa.gamma_p(ctx, x)
    assert pa.gamma_p(ctx, True) == pa.gamma_p(ctx, 1)


def test_residue_rejects_denominators_divisible_by_p():
    ctx = pa.make_padic_ctx(13, 4)
    for den in (13, 26, 13 ** 5):
        with pytest.raises(ValueError):
            ctx.residue(1, den)
    with pytest.raises(ValueError):
        pa.gamma_p(ctx, Fraction(1, 26))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(5, 4), (7, 5), (13, 4), (61, 6)]),
       st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 6),
       st.integers(1, 10 ** 4))
def test_residue_equals_the_fraction_path(pk, num, den, k):
    p, K = pk
    if den % p == 0 or k % p == 0:
        den, k = den * p + 1, k * p + 1
    ctx = pa.make_padic_ctx(p, K)
    mod = p ** K
    x = Fraction(num, den)
    want = x.numerator * pow(x.denominator, -1, mod) % mod
    assert ctx.residue(num, den) == want
    assert ctx.residue(num * k, den * k) == want
    assert (pa.gamma_p(ctx, ctx.residue(num * k, den * k))
            == pa.gamma_p(ctx, Fraction(num * k, den * k)))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_gamma_is_continuous_mod_p_to_the_K(p, K):
    # |Gamma_p(x) - Gamma_p(y)| <= |x - y| for odd p: the engine and the
    # residues live mod p^K with no guard digit on the strength of this
    mod = p ** K
    ctx = pa.make_padic_ctx(p, K)
    for n in (*range(3 * p), 64 * p - 1, 64 * p + 2, mod - 1, 3 * mod + 5):
        want = pa.gamma_p_direct(p, K, n)
        assert pa.gamma_p_direct(p, K, n + mod) == want, n
        for j in (1, 2, 7, 10 ** 20):
            assert pa.gamma_p(ctx, n + j * mod) == pa.gamma_p(ctx, n), (n, j)
        assert pa.gamma_p(ctx, n) == want, n


def test_gamma_small_values():
    ctx = pa.make_padic_ctx(7, 5)
    # Gamma_p(1) = -1, Gamma_p(2) = 1 (empty products with the sign convention)
    mod = 7 ** 5
    assert pa.gamma_p(ctx, 1) % mod == mod - 1
    assert pa.gamma_p(ctx, 2) % mod == 1


@pytest.mark.parametrize("p", [7, 13, 19])
def test_gamma_reflection(p):
    # Gamma_p(x) Gamma_p(1-x) = (-1)^x0 with x0 = x mod p in {1..p}
    K = 5
    ctx = pa.make_padic_ctx(p, K)
    mod = p ** K
    q = p - 1
    for num in range(1, q):
        x = Fraction(num, q)
        prod = pa.gamma_p(ctx, x) * pa.gamma_p(ctx, 1 - x) % mod
        x0 = num * pow(q, -1, p) % p
        assert prod == (1 if x0 % 2 == 0 else mod - 1)


def test_teichmuller_properties(pctx13):
    p, K = 13, 4
    mod = p ** K
    for x in range(1, p):
        t = pctx13.omega(x)
        assert t % p == x
        assert pow(t, p, mod) == t
    for x in range(1, p):
        for y in range(1, p):
            tx, ty = pctx13.omega(x), pctx13.omega(y)
            assert tx * ty % mod == pctx13.omega(x * y % p)
    # the character convention chi(0) = 0
    assert pctx13.omega(0) == 0


def _teichmuller_hensel(p, K, x):
    """The per-x lift: t -> t^p mod p^K from t = x until it is fixed."""
    mod = p ** K
    t, prev = x % mod, None
    while t != prev:
        prev, t = t, pow(t, p, mod)
    return t


@pytest.mark.parametrize("p", [5, 13, 53])
@pytest.mark.parametrize("K", [1, 6, 9])
def test_teichmuller_equals_the_per_x_hensel_lift(p, K):
    ctx = pa.make_padic_ctx(p, K)
    assert ([ctx.omega(x) for x in range(1, p)]
            == [_teichmuller_hensel(p, K, x) for x in range(1, p)])


def test_gauss_product_of_one_index_is_gross_koblitz(pctx13):
    q, mod = pctx13.q, pctx13.mod
    # each index is reduced mod p-1 first; at j = 0 the formula gives -1,
    # the direct value of g(eps)
    assert pa.gauss_product(pctx13, (0,)) == (0, mod - 1)
    for j in range(-q, 2 * q):
        assert pa.gauss_product(pctx13, (j,)) == (
            j % q, -pa.gamma_p(pctx13, Fraction(j % q, q)) % mod)


def test_gauss_product_folds_pi_to_the_p_minus_1_into_minus_p(pctx13):
    p, q, mod = pctx13.p, pctx13.q, pctx13.mod
    _, g1 = pa.gauss_product(pctx13, (1,))
    _, gq1 = pa.gauss_product(pctx13, (q - 1,))
    assert pa.gauss_product(pctx13, (q - 1, 1)) == (0, -p * g1 * gq1 % mod)
    assert pa.gauss_product(pctx13, (q,), 5) == (0, -5 % mod)


def test_gauss_product_keeps_a_zero_unit_at_degree_0(pctx13):
    # two zero products compare equal, whatever their degrees
    assert pa.gauss_product(pctx13, (3, 4), pctx13.mod) == (0, 0)
    assert pa.gauss_product(pctx13, (), 0) == pa.gauss_product(
        pctx13, (5,), 13 ** 4)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-30, 30), max_size=6), st.randoms(),
       st.integers(-400, 400))
def test_gauss_product_does_not_depend_on_the_order(js, rnd, c):
    ctx = pa.make_padic_ctx(13, 4)
    shuffled = list(js)
    rnd.shuffle(shuffled)
    assert pa.gauss_product(ctx, js, c) == pa.gauss_product(ctx, shuffled, c)


@cache
def _row_ctx(p, K):
    """A context of its own per (p, K), out of make_padic_ctx's reach, so
    that its row holds only what these tests read."""
    return pa.PadicCtx(make_field_ctx(p), K)


def _filled(ctx):
    """The entries of the context's Gamma_p row read so far, by index."""
    return {i: g for i, g in enumerate(ctx._row or ()) if g is not None}


def _gauss_product_per_factor(ctx, js, c):
    """c prod_j g(omega-bar^j) as (deg, unit), one gamma_p per factor."""
    q, mod = ctx.q, ctx.mod
    deg, unit = 0, c
    for j in js:
        deg += j % q
        unit = -unit * pa.gamma_p(ctx, Fraction(j % q, q)) % mod
    unit = unit * pow(-ctx.p, deg // q, mod) % mod
    return (deg % q, unit) if unit else (0, 0)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([5, 7, 13, 61]), st.sampled_from([1, 6, 8]),
       st.lists(st.integers(-200, 200), max_size=6), st.integers(-99, 99))
def test_gauss_product_equals_the_per_factor_product(p, K, js, c):
    ctx = _row_ctx(p, K)
    assert pa.gauss_product(ctx, js, c) == _gauss_product_per_factor(
        ctx, js, c)
    # every entry the row holds is Gamma_p(i/(12(p-1))), and each j read
    # so far is filled, at i = 12 (j mod p-1)
    q = ctx.q
    filled = _filled(ctx)
    for i, g in filled.items():
        assert g == pa.gamma_p(ctx, Fraction(i, 12 * q)), i
    assert {12 * (j % q) for j in js} <= set(filled)


def test_the_row_fills_only_the_entries_read():
    ctx = pa.PadicCtx(make_field_ctx(61), 6)
    assert len(ctx._row) == 720 and not _filled(ctx)
    pa.gauss_product(ctx, (7, -3, 67))
    # j = 7 and 57 (= -3 and 67 mod 60) sit at 12 j; the row has 720 slots
    assert sorted(_filled(ctx)) == [84, 684]
    pa.gamma_product_checks(ctx, 3, 5)
    # the constant's h/3 at 240 h; (5 + 60 h)/180 at 4 (5 + 60 h); j and the
    # collapsed 3 j and 3 (60 - j) mod 60 over 60 at 12 times themselves,
    # which the collapsed sums over 180 meet again at 60, 180 and 540
    assert set(_filled(ctx)) == {84, 684, 240, 480, 20, 260, 500, 60, 300,
                                 540, 180, 660, 420}
    for i, g in _filled(ctx).items():
        assert g == pa.gamma_p(ctx, Fraction(i, 720)), i
    for bad in ([720], [0, 720]):
        with pytest.raises(IndexError):
            pa._gamma_run(ctx, bad)
    # on a context of its own, gamma_product_checks(ctx, t, j) fills exactly
    # what its formulas read: Gamma_p(h/t) for 0 < h < t, and Gamma_p(x) and
    # Gamma_p((x + h)/t) for h < t, at x = i/60 for i = j, tj and -tj
    for t in (2, 3, 4, 6, 12):
        for j in (0, 1, 7, 59):
            ctx = pa.PadicCtx(make_field_ctx(61), 6)
            assert pa.gamma_product_checks(ctx, t, j).match, (t, j)
            xs = {Fraction(i % 60, 60) for i in (j, t * j, -t * j)}
            read = xs | {Fraction(h, t) for h in range(1, t)} | {
                (x + h) / t for x in xs for h in range(t)}
            assert set(_filled(ctx)) == {int(x * 720) for x in read}, (t, j)
            for i, g in _filled(ctx).items():
                assert g == pa.gamma_p(ctx, Fraction(i, 720)), (t, j, i)
    # gk_I_integer's one run is the Gauss units, at 12 j; an nGn table's
    # runs are <a_k - a/q> and <a/q - b_k> at every a. Each fills exactly
    # those entries of a context of its own, at p = 1, 7 and 11 mod 12
    release_tables()
    for p in (61, 67, 71):
        q = p - 1
        ctx = pa.PadicCtx(make_field_ctx(p), 6)
        pa.gk_I_integer(ctx)
        assert set(_filled(ctx)) == set(range(0, 12 * q, 12)), p
        for family, (tops, bots) in pa.NGN_FAMILIES.items():
            ctx = pa.PadicCtx(make_field_ctx(p), 6)
            pa._ngn_table(ctx, family)
            assert set(_filled(ctx)) == {
                int((x % 1) * 12 * q) for a in range(q)
                for x in [ak - Fraction(a, q) for ak in tops]
                + [Fraction(a, q) - bk for bk in bots]}, (p, family)
            for i, g in _filled(ctx).items():
                assert g == pa.gamma_p(ctx, Fraction(i, 12 * q)), (p, i)
    release_tables()


@pytest.mark.parametrize("p", [7, 13])
def test_contexts_at_K_and_K_plus_2_keep_their_own_rows_and_constants(p):
    field = make_field_ctx(p)
    ctxs = pa.PadicCtx(field, 6), pa.PadicCtx(field, 8)
    q = p - 1
    for ctx in ctxs:
        for t in (2, 3, 4, 6, 12):
            for j in range(q):
                assert pa.gamma_product_checks(ctx, t, j).match, (t, j)
        pa.gauss_product(ctx, range(q))
    lo, hi = ctxs
    assert lo._row is not hi._row
    # the Gauss units at 12 j and the constants' h/t at 12 q h/t are filled
    # on each, and every filled entry is Gamma_p(i/(12 q)) at its own K
    wanted = {12 * j for j in range(q)} | {
        12 * q * h // t for t in (2, 3, 4, 6, 12) for h in range(1, t)}
    for ctx in ctxs:
        filled = _filled(ctx)
        assert wanted <= set(filled)
        for i, g in filled.items():
            assert g == pa.gamma_p(ctx, Fraction(i, 12 * q)), i
    # the K + 2 values reduce to the K = 6 ones, and carry digits past them
    assert [g if g is None else g % lo.mod for g in hi._row] == lo._row
    assert hi._row != lo._row


def test_ngn_parameters_are_twelfths():
    # so the nGn tables read every Gamma_p value from the row
    for tops, bots in pa.NGN_FAMILIES.values():
        for x in tops + bots:
            assert 12 % x.denominator == 0, x


def test_contexts_at_K_and_K_plus_2_are_kept_until_the_next_prime():
    for drop in (lambda: pa.make_padic_ctx(17), release_tables):
        lo, hi = pa.make_padic_ctx(13, 6), pa.make_padic_ctx(13, 8)
        assert pa.make_padic_ctx(13) is lo and pa.make_padic_ctx(13, 8) is hi
        refs = weakref.ref(lo), weakref.ref(hi)
        del lo, hi
        drop()
        assert all(r() is None for r in refs)


@pytest.mark.parametrize("p,K,pairs", [
    (7, 6, None), (13, 6, None), (61, 8, 50)])
def test_jacobi_sum_equals_the_per_y_loop(p, K, pairs):
    ctx = pa.PadicCtx(make_field_ctx(p), K)
    q, mod = ctx.q, ctx.mod
    if pairs is None:
        ab = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = random.Random(61)
        ab = [(rng.randrange(q), rng.randrange(q)) for _ in range(pairs)]
    for a, b in ab:
        tot = 0
        for y in range(2, p):
            tot += ctx.omega(y, a) * ctx.omega((1 - y) % p, b)
        assert pa.jacobi_sum(ctx, a, b) == tot % mod, (a, b)


# sha256 of (name, lhs, rhs, match, detail) of every record below, taken
# while the Gauss sums were monomials of a ring type
GAUSS_RECORDS_SHA256 = (
    "cbba4c9bc9c1d8e35ef6cd2f7f72d696879fa1627aad74c6a8379f0e70ccbb3d")


def test_gauss_sum_records_are_pinned():
    ctx = pa.make_padic_ctx(13, 6)
    recs = [pa.gk_consistency_check(ctx, a, b)
            for a in range(1, 12) for b in range(1, 12)]
    recs += [pa.hasse_davenport_check(ctx, m, s)
             for m in (2, 3) for s in range(12)]
    rows = "".join(f"{r.name},{r.lhs},{r.rhs},{r.match},{r.detail}\n"
                   for r in recs)
    assert len(recs) == 145 and rows.startswith(
        "gk-j1-j1,pi^2*49830,pi^2*49830,True,pi-excess=0\n")
    assert hashlib.sha256(rows.encode()).hexdigest() == GAUSS_RECORDS_SHA256


@pytest.mark.parametrize("p", [7, 13])
def test_gauss_sum_multiplication_exhaustive(p):
    ctx = pa.make_padic_ctx(p, 3)
    for a in range(1, p - 1):
        for b in range(1, p - 1):
            rec = pa.gk_consistency_check(ctx, a, b)
            assert rec.match, (p, a, b, rec.detail)


def test_gauss_sum_norm_edge(pctx13):
    # a + b = 0 mod p-1: the product is the scalar (-1)^a p
    rec = pa.gk_consistency_check(pctx13, 5, 7)
    assert rec.match
    rec = pa.gk_consistency_check(pctx13, 6, 6)
    assert rec.match


def test_hasse_davenport_all_shifts(pctx13):
    for m in (2, 3):
        for sidx in range(12):
            rec = pa.hasse_davenport_check(pctx13, m, sidx)
            assert rec.match, (m, sidx, rec.detail)


def test_gamma_product_formulas_exhaustive(pctx13):
    for t in (2, 3, 4, 6, 12):
        for j in range(12):
            rec = pa.gamma_product_checks(pctx13, t, j)
            assert rec.match, (t, j, rec.detail)


FROZEN_I = {5: 140, 7: -714, 11: 3630, 13: -1404, 17: -18224,
            19: -21546, 23: 39974}


@pytest.mark.parametrize("p", sorted(FROZEN_I))
def test_gauss_sum_fourth_moment_integer(p):
    ctx = pa.make_padic_ctx(p, 6)
    assert pa.gk_I_integer(ctx) == FROZEN_I[p]


def _dft_literal(ctx, x):
    """sum_k x[k] omega(g)^(a k) mod p^K at every a, term by term."""
    q, pw = ctx.q, ctx.pw
    return [sum(xk * pw[a * k % q] for k, xk in enumerate(x)) % ctx.mod
            for a in range(q)]


@pytest.mark.parametrize("K", [1, 6, 9])
def test_teichmuller_dft_equals_the_literal_sum(K):
    for p in primerange(5, 400):
        ctx = pa.PadicCtx(make_field_ctx(p), K)
        rng = random.Random(p * 100 + K)
        # signed entries, as a histogram of character values has
        x = [rng.randrange(-ctx.mod, ctx.mod) for _ in range(ctx.q)]
        assert pa.teichmuller_dft(ctx, x) == _dft_literal(ctx, x), p


def test_teichmuller_dft_rejects_a_wrong_length():
    ctx = pa.make_padic_ctx(13, 4)
    with pytest.raises(ValueError):
        pa.teichmuller_dft(ctx, [1] * 13)


ROUTED_PRIMES = [7, 13, 53, 61, 397]


@pytest.mark.parametrize("p", ROUTED_PRIMES)
def test_jacobi_and_greene_tables_equal_their_literal_sums(p):
    ctx = pa.make_padic_ctx(p, 6)
    q, half = ctx.q, ctx.q // 2
    assert pa._jacobi_table(ctx) == tuple(
        pa.jacobi_sum(ctx, (half + c) % q, (q - c) % q) for c in range(q))
    S = pa._greene_S_table(ctx)
    assert len(S) == p
    assert list(S[1:]) == [pa._greene_S(ctx, lam) for lam in range(1, p)]


@pytest.mark.parametrize("p", ROUTED_PRIMES)
def test_character_weights_equal_their_literal_loops(p):
    ctx = pa.make_padic_ctx(p, 6)
    q, mod, pw = ctx.q, ctx.mod, ctx.pw
    dlog, qr = ctx.field.dlog, ctx.field.qr
    # prop6.6: w_c = sum_t phi(1+t) omega-bar^c(1-t^2)
    w66 = []
    for c in range(q):
        w = 0
        for t in range(p):
            if (1 + t) % p and (1 - t * t) % p:
                w += qr[(1 + t) % p] * pw[(q - c) % q
                                          * dlog[(1 - t * t) % p] % q]
        w66.append(w % mod)
    assert pa._prop66_weights(ctx) == w66
    # I: w_a = sum_lam phi(lam) omega-bar^a(4(1-lam)/lam)
    wI = []
    for a in range(q):
        w = 0
        for lam in range(2, p):
            u = 4 * (1 - lam) * pow(lam, p - 2, p) % p
            w += qr[lam] * pw[(q - a) % q * dlog[u] % q]
        wI.append(w % mod)
    assert pa._gk_I_weights(ctx) == wI


@pytest.mark.parametrize("p", ROUTED_PRIMES)
def test_ngn_values_equal_the_literal_a_sum(p):
    ctx = pa.make_padic_ctx(p, 6)
    for family in pa.NGN_FAMILIES:
        table = pa._ngn_table(ctx, family)
        h = table.ctx
        for t in range(1, p):
            dl = h.field.dlog[t]
            want = sum(c * h.pw[-a * dl % h.q]
                       for a, c in enumerate(table.coeffs)) % h.mod
            assert pa._ngn_at(table, t) == want, (family, t)


def test_ngn_accessor_rejects_t_zero_mod_p(pctx13):
    for family in pa.NGN_FAMILIES:
        table = pa._ngn_table(pctx13, family)
        for t in (0, 13, -26):
            with pytest.raises(ValueError, match="t = 0"):
                pa._ngn_at(table, t)


@pytest.mark.parametrize("p", ROUTED_PRIMES)
def test_greene_check_equals_the_fraction_comparison(p):
    # the integer read S(lam) = -phi(-1)(p-1) a_p(lam) against the per-lam
    # comparison of rationals it replaced
    ctx = pa.make_padic_ctx(p, 6)
    aps = ap_table(ctx.field)
    phi_m1 = ctx.field.qr[p - 1]
    bad = sum(pa.greene_2f1_fraction(ctx, lam)
              != Fraction(-phi_m1 * aps[lam], p) for lam in range(2, p))
    rec = pa.greene_check(ctx)
    assert (rec.name, rec.lhs, rec.rhs, rec.match) == (
        "greene-trace", bad, 0, bad == 0)
    assert rec.match


def test_greene_2f1_known_value():
    ctx = pa.make_padic_ctx(5, 4)
    assert pa.greene_2f1_fraction(ctx, 2) == Fraction(2, 5)
    assert pa.greene_2f1_fraction(ctx, 5) == Fraction(0)


@pytest.mark.parametrize("p", [7, 11, 13, 19])
def test_greene_2f1_trace_relation(p):
    # p 2F1(lambda) = -phi(-1) a_p(lambda) for every lambda not 0, 1
    ctx = pa.make_padic_ctx(p, 4)
    phi_m1 = ctx.field.qr[p - 1]
    for lam in range(2, p):
        got = pa.greene_2f1_fraction(ctx, lam)
        assert got == Fraction(-phi_m1 * ap_legendre(ctx.field, lam), p)


FROZEN_S3 = {5: -24, 7: 0, 11: 0, 13: 120}


@pytest.mark.parametrize("p", sorted(FROZEN_S3))
def test_greene_3f2_at_one(p):
    # S3 = p^2 (p-1) 3F2(1)
    assert pa._s3_integer(pa.make_padic_ctx(p, 4)) == FROZEN_S3[p]


def test_gfun_evaluations_frozen():
    assert pa.ngn_evaluate(7, "3g3", 3, 6) == (-2, 85926)
    assert pa.ngn_evaluate(13, "9g9", 5, 6) == (0, 9)


def test_gfun_zero_argument():
    assert pa.ngn_evaluate(7, "3g3", 0, 6) is None
    assert pa.ngn_evaluate(7, "3g3", 7, 6) is None


@pytest.mark.parametrize("p", [7, 13, 19, 31])
def test_weighted_3g3_sum_identity(p):
    rec = pa.prop64_check(pa.make_padic_ctx(p, 6))
    assert rec.match
    assert "corrected-const/theorem-twist=True" in rec.detail
    assert "printed-const/printed-twist=False" in rec.detail


@pytest.mark.parametrize("p", [5, 11, 17, 23])
def test_weighted_9g9_sum_identity(p):
    rec = pa.prop65_check(pa.make_padic_ctx(p, 6))
    assert rec.match
    assert "plain=True" in rec.detail


def test_9g9_prefactor_has_no_sign_dressing():
    # p = 11 separates the two readings: phi(-1) = -1 and only the bare
    # prefactor reproduces the integer
    rec = pa.prop65_check(pa.make_padic_ctx(11, 6))
    assert rec.match and "with-phi(-1)=False" in rec.detail


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_second_moment_backbone_exact(p):
    rec = pa.prop66_check(pa.make_padic_ctx(p, 6))
    assert rec.match
    assert rec.ratio is not None


def test_trend_sweeps():
    recs2 = [pa.theorem62_record(pa.make_padic_ctx(p))
             for p in primerange(7, 121) if p % 6 == 1]
    recs3 = [pa.theorem63_record(pa.make_padic_ctx(p))
             for p in primerange(7, 121) if p % 3 == 2]
    assert pa.sweep_trend_ok(recs2)
    assert pa.sweep_trend_ok(recs3)
    assert abs(recs2[0].lhs) == 714 and recs2[0].p == 7
    with pytest.raises(ValueError):
        pa.sweep_trend_ok(recs2[:1])


@pytest.mark.parametrize("build,p", [(pa.theorem62_record, 11),
                                     (pa.theorem62_record, 17),
                                     (pa.theorem63_record, 7),
                                     (pa.theorem63_record, 13)])
def test_theorem_records_raise_off_their_class(build, p):
    with pytest.raises(ValueError, match="p must be"):
        build(pa.make_padic_ctx(p))


def test_precision_raise_pathway(monkeypatch):
    # the suites' tables of both families live on the context they are read
    # from, at its own K; only ngn_evaluate reads 3G3, whose table
    # premultiplies p^2, from the context at K + 2
    release_tables()
    ctx = pa.make_padic_ctx(13)
    for family in pa.NGN_FAMILIES:
        assert pa._ngn_table(ctx, family).ctx is ctx
    read, real_at = [], pa._ngn_at
    monkeypatch.setattr(pa, "_ngn_at",
                        lambda tab, t: read.append(tab) or real_at(tab, t))
    pa.ngn_evaluate(13, "3g3", 2, 6)
    pa.ngn_evaluate(13, "9g9", 2, 6)
    t3, t9 = read
    assert t3.ctx is pa.make_padic_ctx(13, 8) and t3.scale == 2
    assert t9.ctx is ctx and t9.scale == 0


def test_ngn_scales_are_2_for_3g3_and_0_for_9g9():
    # prop6.4 divides out 3G3's p^2 and prop6.5 assumes no p-power at all
    for p in primerange(5, 2000):
        assert pa._ngn_exponents("3g3", p - 1)[3] == 2, p
        assert pa._ngn_exponents("9g9", p - 1)[3] == 0, p


def test_prop64_raises_off_scale_2(monkeypatch):
    # 9G9's parameters under 3G3's name give a table of scale 0, whose
    # values carry no p^2 for the constants to drop
    release_tables()
    monkeypatch.setitem(pa.NGN_FAMILIES, "3g3", pa.NGN_FAMILIES["9g9"])
    try:
        with pytest.raises(ArithmeticError, match="scale is 0, not 2"):
            pa.prop64_check(pa.make_padic_ctx(13))
    finally:
        release_tables()


@pytest.mark.parametrize("p", [13, 61])
def test_prop64_compares_I_mod_p6(monkeypatch, p):
    # the corrected flag holds for I + p^6 and fails for I + p^5: prop6.4
    # reads I to exactly K = 6 digits
    release_tables()
    ctx = pa.make_padic_ctx(p)
    I = pa.gk_I_integer(ctx)
    for d, want in ((0, True), (p ** 5, False), (p ** 6, True),
                    (-p ** 6, True)):
        monkeypatch.setattr(pa, "gk_I_integer", lambda c, d=d: I + d)
        rec = pa.prop64_check(ctx)
        assert (rec.lhs, rec.match) == (I + d, want), d
        assert f"corrected-const/theorem-twist={want}" in rec.detail


@pytest.mark.parametrize("p", [7, 13, 61])
def test_ngn_table_at_K_is_the_K_plus_2_table_mod_p_K(p):
    for family in pa.NGN_FAMILIES:
        lo = pa._ngn_table(pa.PadicCtx(make_field_ctx(p), 6), family)
        hi = pa._ngn_table(pa.PadicCtx(make_field_ctx(p), 8), family)
        assert lo.scale == hi.scale
        mod = p ** 6
        assert lo.coeffs == tuple(c % mod for c in hi.coeffs), family
        assert lo.values == [v % mod for v in hi.values], family


@pytest.mark.parametrize("family,lam", [("3g3", 3), ("9g9", 5)])
def test_gfun_builds_one_ngn_table(capsys, monkeypatch, family, lam):
    from ntlab import cli
    built, real = [], pa.NgnTable

    def counting(*args):
        built.append(args[0].K)
        return real(*args)

    monkeypatch.setattr(pa, "NgnTable", counting)
    release_tables()
    assert cli.main(["gfun", "--p", "13", "--family", family, "--lambda",
                     str(lam)]) == 0
    capsys.readouterr()
    assert built == [6 + pa._ngn_exponents(family, 12)[3]]


def test_collapsed_product_formulas_are_formula_1_at_tj():
    # (2) at j reads formula (1)'s entries at t j mod (p-1), and (3) at
    # -t j, so the flags agree even on a row with corrupted entries
    rng = random.Random(13)
    failed = 0
    for p in (7, 13, 37):
        q, ts = p - 1, (2, 3, 4, 6, 12)
        for trial in range(5):
            ctx = pa.PadicCtx(make_field_ctx(p), 4)
            for t in ts:
                for j in range(q):
                    pa.gamma_product_checks(ctx, t, j)
            for i in rng.sample(sorted(_filled(ctx)), 1 + trial):
                ctx._row[i] += rng.randrange(1, ctx.mod)
            for t in ts:
                ok = [pa.gamma_product_checks(ctx, t, j).lhs for j in range(q)]
                failed += sum(not all(f) for f in ok)
                for j in range(q):
                    assert ok[j][1] == ok[t * j % q][0], (p, t, j)
                    assert ok[j][2] == ok[-t * j % q][0], (p, t, j)
    assert failed


# Each probe runs under python -O, where an assert would vanish, and sets
# `result`; one interpreter runs them all, since its start-up (compiling the
# package without opt-1 bytecode) costs more than the probes.
PYTHON_O_PROBES = {
    # F added to a monomial coefficient of F Q(m) keeps the division by F
    # exact and moves Q(m) by m^d, so only the self-test's comparison can
    # catch it; try each coefficient
    "corrupted-newton": (
        "from ntlab.padic import _GammaEngine\n"
        "e = _GammaEngine(5, 4)\n"
        "good = e._newton\n"
        "missed = []\n"
        "for k in range(len(good)):\n"
        "    e._newton = list(good)\n"
        "    e._newton[k] = (good[k] + e._F) % e._fmod\n"
        "    try:\n"
        "        e._selftest()\n"
        "        missed.append(k)\n"
        "    except ArithmeticError:\n"
        "        pass\n"
        "result = f'missed {missed}'\n"),
    # 1 added to a monomial coefficient leaves F Q(64) off a multiple of F
    # by 64^d, which F = 6! does not divide; an assert would hand back a
    # wrong quotient, so at_int itself must raise, at each coefficient
    "inexact-F": (
        "from ntlab.padic import _GammaEngine\n"
        "e = _GammaEngine(5, 4)\n"
        "good = e._newton\n"
        "missed = []\n"
        "for k in range(len(good)):\n"
        "    e._newton = list(good)\n"
        "    e._newton[k] = (good[k] + 1) % e._fmod\n"
        "    try:\n"
        "        e.at_int(64 * 5)\n"
        "        missed.append(k)\n"
        "    except ArithmeticError:\n"
        "        pass\n"
        "result = f'missed {missed}'\n"),
    # a tail coefficient of degree d < K off by 1 moves Gamma_p by (m p)^d;
    # the self-test reaches every tail polynomial, so try each coefficient
    "corrupted-tail": (
        "from ntlab.padic import _GammaEngine\n"
        "e = _GammaEngine(5, 4)\n"
        "good = e._tails\n"
        "missed = []\n"
        "for r, f in enumerate(good):\n"
        "    for d in range(len(f)):\n"
        "        e._tails = [list(g) for g in good]\n"
        "        e._tails[r][d] = (f[d] + 1) % e.mod\n"
        "        try:\n"
        "            e._selftest()\n"
        "            missed.append((r, d))\n"
        "        except ArithmeticError:\n"
        "            pass\n"
        "result = f'missed {missed}'\n"),
}


@pytest.fixture(scope="module")
def python_O_results() -> dict[str, str]:
    runner = ("print('debug', __debug__)\n"
              f"for name, code in {PYTHON_O_PROBES!r}.items():\n"
              "    ns = {}\n"
              "    exec(code, ns)\n"
              "    print(name, ns['result'])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(pa.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", runner], env=env,
                         capture_output=True, text=True, check=True)
    lines = dict(line.split(" ", 1) for line in out.stdout.splitlines())
    assert lines.pop("debug") == "False"
    return lines


def test_corrupted_newton_coefficient_raises_under_python_O(python_O_results):
    assert python_O_results["corrupted-newton"] == "missed []"


def test_inexact_F_division_raises_under_python_O(python_O_results):
    assert python_O_results["inexact-F"] == "missed []"


def test_corrupted_tail_coefficient_raises_under_python_O(python_O_results):
    assert python_O_results["corrupted-tail"] == "missed []"
