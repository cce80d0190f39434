import math
import random
from fractions import Fraction
from itertools import repeat

import mpmath
import pytest

from ntlab import kloosterman as km
from ntlab.ffield import make_field_ctx
from ntlab.kloosterman import (PrecisionError, angle_histogram, closed_forms,
                               kloosterman_sum, kloosterman_sum_via_quadric,
                               kloosterman_table, round_fixed,
                               semicircle_bins, semicircle_chisq,
                               sheaf_moment, symmetric_moment_rhs, trig_table,
                               twisted_moment, untwisted_moment)
from ntlab.primes import isprime, primerange


def _kloosterman_mpmath(p, a):
    with mpmath.workdps(50):
        s = mpmath.mpf(0)
        for x in range(1, p):
            s += mpmath.cos(2 * mpmath.pi * ((x + a * pow(x, p - 2, p)) % p) / p)
        return s


def test_sum_certified_against_mpmath(ctx13):
    for a in range(13):
        k = kloosterman_sum(ctx13, a)
        with mpmath.workdps(50):
            assert abs(mpmath.mpf(k.value) - _kloosterman_mpmath(13, a)) <= k.err + mpmath.mpf(2) ** -95


def test_zero_argument_is_minus_one(ctx13):
    k = kloosterman_sum(ctx13, 0)
    assert (k.value, k.err) == (-1.0, 0.0)


@pytest.mark.parametrize("p", [11, 13, 23])
def test_quadric_route_agrees_with_direct(p):
    # two independent evaluations: cosine sum vs point count on the dual quadric
    ctx = make_field_ctx(p)
    for a in range(1, p):
        d = kloosterman_sum(ctx, a)
        q = kloosterman_sum_via_quadric(ctx, a)
        assert abs(d.value - q.value) <= d.err + q.err + 1e-12


def test_weil_bound(ctx13):
    for a in range(1, 13):
        k = kloosterman_sum(ctx13, a)
        assert abs(k.value) <= 2 * math.sqrt(13) + k.err


def test_low_moments_p7(ctx7):
    assert untwisted_moment(ctx7, 1) == 1
    assert untwisted_moment(ctx7, 2) == 41
    assert untwisted_moment(ctx7, 3) == 64
    assert untwisted_moment(ctx7, 4) == 517


@pytest.mark.parametrize("p", [7, 11, 13, 31])
def test_closed_forms_against_direct(p):
    ctx = make_field_ctx(p)
    forms = closed_forms(p)
    assert untwisted_moment(ctx, 1) == forms["S1"]
    assert untwisted_moment(ctx, 2) == forms["S2"]
    assert twisted_moment(ctx, 2, ctx.phi_idx()) == forms["S2phi"]
    # the recorded fourth-moment constant is off by exactly 3p from the sum
    assert forms["S4"] - untwisted_moment(ctx, 4) == 3 * p
    assert untwisted_moment(ctx, 4) == 2 * p ** 3 - 3 * p ** 2 - 3 * p - 1


@pytest.mark.parametrize("p", [7, 11, 13, 17])
def test_first_twisted_moment(p):
    ctx = make_field_ctx(p)
    phi_m1 = ctx.qr[p - 1]
    assert twisted_moment(ctx, 1, ctx.phi_idx()) == phi_m1 * p


def test_twisted_moment_rejects_cubic_twist(ctx13):
    with pytest.raises(ValueError):
        twisted_moment(ctx13, 2, (13 - 1) // 3)


def test_trivial_twist_falls_back_to_untwisted(ctx11):
    assert twisted_moment(ctx11, 2, 0) == untwisted_moment(ctx11, 2)


@pytest.mark.parametrize("p", [7, 11, 13, 19])
def test_sheaf_moment_offset_relation(p):
    # M(4,phi) = S(4,phi) + 3p^2 and M(1,phi) = -phi(-1) p
    ctx = make_field_ctx(p)
    s4phi = twisted_moment(ctx, 4, ctx.phi_idx())
    assert sheaf_moment(ctx, 4) == s4phi + 3 * p * p
    assert sheaf_moment(ctx, 1) == -ctx.qr[p - 1] * p


@pytest.mark.parametrize("p,m", [(7, 1), (7, 2), (11, 2), (7, 3), (11, 3)])
def test_symmetric_sum_is_next_twisted_moment(p, m):
    # expanding K^(m+1) in m free variables: the combinatorial route gives
    # S(m+1, phi) as an exact integer, independent of the trig table
    ctx = make_field_ctx(p)
    assert symmetric_moment_rhs(ctx, m) == twisted_moment(ctx, m + 1, ctx.phi_idx())


def test_symmetric_sum_cap():
    # the cap is checked before any table of p(2p-1) entries is built
    ctx = make_field_ctx(211)
    with pytest.raises(ValueError, match="p=211 > 200"):
        symmetric_moment_rhs(ctx, 2)


def test_s3_values_fit_quadratic_character_form():
    # S(3)_p = (p|3) p^2 + 2p + 1, with (p|3) = +1 for p = 1 mod 3
    for p in (7, 11, 13, 17, 19):
        c3 = 1 if p % 3 == 1 else -1
        s3 = untwisted_moment(make_field_ctx(p), 3)
        assert s3 == c3 * p * p + 2 * p + 1


@pytest.mark.parametrize("p", [7, 97, 499])
def test_trig_table_certified_against_mpmath(p):
    t = trig_table(p)
    assert len(t.cos) == p
    with mpmath.workdps(60):
        for k in range(0, p, max(1, p // 23)):
            angle = 2 * mpmath.pi * k / p
            assert abs(t.cos[k] - mpmath.ldexp(mpmath.cos(angle), t.bits)) <= 1


def _trig_reference(p, seed):
    """2^(2 seed) cos(2 pi k/p), k < p, unrounded: baby-step
    giant-step on seeds from mpmath, each rounded to 2^-seed. A seed is
    within 1/2 + 2^-31 units, so an entry is within 2^(seed + 1) units of
    2^-2seed."""
    m = max(1, math.isqrt(p))
    n_giant = p // m + 1
    with mpmath.workprec(seed + 32):
        tau = 2 * mpmath.pi / p

        def fixed(x):
            return int(mpmath.nint(mpmath.ldexp(x, seed)))

        cb = [fixed(mpmath.cos(tau * j)) for j in range(m)]
        sb = [fixed(mpmath.sin(tau * j)) for j in range(m)]
        cg = [fixed(mpmath.cos(tau * m * i)) for i in range(n_giant)]
        sg = [fixed(mpmath.sin(tau * m * i)) for i in range(n_giant)]
    return [cg[k // m] * cb[k % m] - sg[k // m] * sb[k % m] for k in range(p)]


def test_trig_table_within_half_a_unit_and_2_to_minus_20():
    # at seed = bits + 48 the reference is within 2^-47 units of 2^-bits;
    # every entry of the table must lie within 1/2 + 2^-20 units of it
    for p in [*primerange(2, 2000), 7919, 32003, 100003]:
        t = trig_table(p)
        seed = t.bits + 48
        drop = 2 * seed - t.bits
        tol = (1 << (drop - 1)) + (1 << (drop - 20))
        cos = _trig_reference(p, seed)
        assert len(t.cos) == p
        for got, ref in zip(t.cos, cos):
            assert abs((got << drop) - ref) <= tol, p


def test_trig_table_refuses_p_past_its_proven_bound(monkeypatch):
    # 4194319 is the least prime above 2^22; the guard fires before pi or
    # any rotation is computed, so no table of that size is built
    p = 4194319
    assert isprime(p) and not any(map(isprime, range(1 << 22, p)))

    def no_work(*args):
        raise AssertionError("trig_table worked past its guard")

    monkeypatch.setattr(km, "_arctan_inv", no_work)
    monkeypatch.setattr(km, "_rotations", no_work)
    with pytest.raises(ValueError, match=r"p < 2\^22"):
        trig_table(p)


@pytest.mark.parametrize("p", [11, 13, 101, 103])
def test_table_certified_against_mpmath(p):
    # 13 and 101 are 1 mod 4 and 11 and 103 are 3 mod 4, so both signs of
    # phi(-1), which the table's product carries, are certified
    K, shift, err = kloosterman_table(make_field_ctx(p))
    assert K[0] == -(1 << shift)
    with mpmath.workdps(60):
        for a in range(1, p):
            exact = mpmath.ldexp(_kloosterman_mpmath(p, a), shift)
            assert abs(K[a] - exact) <= err


@pytest.mark.parametrize("p", [13, 101, 1531])
def test_table_against_the_direct_sum(p):
    # the table is the quadric count of every a at once, so the direct
    # cosine sum over x, one a at a time, is its oracle: the two certified
    # intervals must overlap, checked exactly
    ctx = make_field_ctx(p)
    K, shift, err = kloosterman_table(ctx)
    one = Fraction(1, 1 << shift)
    for a in random.Random(p).sample(range(1, p), min(p - 1, 40)):
        d = kloosterman_sum(ctx, a)
        gap = abs(K[a] * one - Fraction(d.value))
        assert gap <= err * one + Fraction(d.err), a


def test_round_fixed_accepts_certified_values():
    assert round_fixed((41 << 10) + 1, 10, 5) == 41
    assert round_fixed(-3 << 4, 4, 7) == -3          # 7/16 < 1/2
    assert round_fixed((-3 << 4) - 7, 4, 0) == -3
    assert round_fixed(12, 0, 0) == 12


def test_round_fixed_rejects_weak_bounds():
    with pytest.raises(PrecisionError):
        round_fixed(41 << 10, 10, 1 << 9)            # err = 1/2
    with pytest.raises(PrecisionError):
        round_fixed((41 << 10) + 410, 10, 205)       # 41.4 +- 0.2
    with pytest.raises(PrecisionError):
        round_fixed((41 << 10) + 512, 10, 0)         # a tie is never rounded


def test_moments_raise_when_the_table_is_too_coarse(ctx13, monkeypatch):
    from ntlab import kloosterman
    K, shift, err = kloosterman_table(ctx13)
    monkeypatch.setattr(kloosterman, "kloosterman_table",
                        lambda ctx: (K, shift, err << shift))
    with pytest.raises(PrecisionError):
        untwisted_moment(ctx13, 4)


def _moment_horner(ctx, coeffs, twisted):
    """The per-a moment the power sums replaced, as an oracle: Horner's rule
    on every K~(a), times phi(a) if twisted, under the same error bound."""
    p = ctx.p
    K, shift, err = kloosterman_table(ctx)
    kmax = max(abs(k) for k in K[1:]) + err
    slope = sum(j * abs(c) * kmax ** (j - 1)
                for j, c in enumerate(coeffs) if j)
    top, rest = coeffs[-1], coeffs[-2::-1]
    total = 0
    for q, k in zip(ctx.qr[1:] if twisted else repeat(1), K[1:]):
        h = top
        for c in rest:
            h = h * k + c
        total += q * h
    return round_fixed(total, (len(coeffs) - 1) * shift, (p - 1) * slope * err)


@pytest.mark.parametrize("p", [7, 13, 97, 1531])
def test_moments_equal_the_per_a_horner_sums(p, monkeypatch):
    from ntlab import kloosterman
    ctx = make_field_ctx(p)
    phi = ctx.phi_idx()

    def moments():
        return [(untwisted_moment(ctx, n), twisted_moment(ctx, n, phi),
                 sheaf_moment(ctx, n)) for n in range(1, 7)]

    got = moments()
    monkeypatch.setattr(kloosterman, "_moment", _moment_horner)
    assert got == moments()


def test_angle_histogram_counts_and_semicircle():
    ctx = make_field_ctx(997)
    counts = angle_histogram(ctx, 20)
    assert sum(counts) == 996
    assert semicircle_chisq(counts) < 60.0
    edges, expected = semicircle_bins(20, 996)
    assert edges[0] == 0.0 and edges[-1] == math.pi and len(expected) == 20
    assert math.isclose(sum(expected), 996)


def test_angle_histogram_rejects_no_bins(ctx7):
    with pytest.raises(ValueError):
        angle_histogram(ctx7, 0)
