import math

import pytest

from ntlab.ffield import make_field_ctx
from ntlab.primes import primerange
from ntlab import ecurve
from ntlab.ecurve import (_class_of, _iso_class, ap_legendre, ap_table,
                          curve_census, curves_isomorphic, j_invariant, l_set,
                          l_set_sizes, short_weierstrass, torsion_class,
                          twist_relation_misses)


@pytest.mark.parametrize("p", [11, 13])
def test_trace_against_point_count(p):
    ctx = make_field_ctx(p)
    for lam in range(2, p - 1):
        npoints = 1  # infinity
        for x in range(p):
            rhs = x * (x - 1) * (x - lam) % p
            npoints += 1 if rhs == 0 else (2 if ctx.qr[rhs] == 1 else 0)
        assert ap_legendre(ctx, lam) == p + 1 - npoints


@pytest.mark.parametrize("p", [11, 13, 17, 97, 1993, 1999])
def test_hasse_bound_and_table(p):
    # 1993 = 1 and 1999 = 3 mod 4: both signs of phi(-1) near large-p size
    ctx = make_field_ctx(p)
    aps = ap_table(ctx)
    assert len(aps) == p and aps[0] == aps[1] == 0
    for lam in range(2, p):
        assert aps[lam] == ap_legendre(ctx, lam)
        assert abs(aps[lam]) <= 2 * math.isqrt(p) + 1


def test_lambda_guardrails(ctx11):
    for lam in (0, 1, 11, 12):
        with pytest.raises(ValueError):
            ap_legendre(ctx11, lam)
    # lambda = -1 is smooth (distinct roots 0, 1, -1) and has CM
    assert ap_legendre(ctx11, 10) == 0


def _literal_twist_misses(ctx, a):
    """The lambda where a(lam) = phi(lam) a(1/lam), a(lam) = phi(-1) a(1-lam)
    or a(lam) = phi(1-lam) a(lam/(lam-1)) fails, each written out."""
    p, qr = ctx.p, ctx.qr
    out = []
    for lam in range(2, p - 1):
        mu = lam * pow(lam - 1, -1, p) % p
        if not (a(lam) == qr[lam] * a(pow(lam, -1, p))
                and a(lam) == qr[p - 1] * a((1 - lam) % p)
                and a(lam) == qr[(1 - lam) % p] * a(mu)):
            out.append(lam)
    return out


@pytest.mark.parametrize("p", [11, 13, 17, 401])
def test_twist_relations_exhaustive(p):
    # the misses read ap_table; each relation is also taken literally, with
    # every trace summed by ap_legendre
    ctx = make_field_ctx(p)
    literal = _literal_twist_misses(ctx, lambda lam: ap_legendre(ctx, lam))
    assert twist_relation_misses(ctx) == literal == []


@pytest.mark.parametrize("p, lam", [(13, 5), (29, 2), (101, 99)])
def test_twist_relation_misses_find_a_planted_fault(monkeypatch, p, lam):
    # one trace off by one breaks the relations at lam and along its orbit
    ctx = make_field_ctx(p)
    planted = list(ap_table(ctx))
    planted[lam] += 1
    planted = tuple(planted)
    monkeypatch.setattr(ecurve, "ap_table", lambda _: planted)
    misses = twist_relation_misses(ctx)
    assert lam in misses
    assert misses == _literal_twist_misses(ctx, planted.__getitem__)


def test_j_invariant_constant_on_orbit(ctx13):
    p = 13
    for lam in range(2, p - 1):
        j = j_invariant(ctx13, lam)
        assert j == j_invariant(ctx13, pow(lam, p - 2, p))
        assert j == j_invariant(ctx13, (1 - lam) % p)


def test_torsion_class_partition(ctx13):
    buckets = {"2x2": 0, "2x4": 0, "4x4": 0}
    for lam in range(2, 12):
        buckets[torsion_class(ctx13, lam)] += 1
    assert sum(buckets.values()) == 10


def _halved_roots(p, lam):
    """The roots e in {0, 1, lam} whose (e, 0) is 2P for some P in
    E_lambda(F_p), by doubling every affine point."""
    sqrts = {}
    for y in range(p):
        sqrts.setdefault(y * y % p, []).append(y)
    doubles = set()
    for x in range(p):
        for y in sqrts.get(x * (x - 1) * (x - lam) % p, ()):
            if y == 0:
                continue   # 2P = O
            m = (3 * x * x - 2 * (1 + lam) * x + lam) * pow(2 * y, -1, p) % p
            x3 = (m * m + 1 + lam - 2 * x) % p
            doubles.add((x3, (m * (x - x3) - y) % p))
    return [e for e in (0, 1, lam) if (e, 0) in doubles]


@pytest.mark.parametrize("p", list(primerange(5, 60)))
def test_torsion_class_against_point_halving(p):
    ctx = make_field_ctx(p)
    bucket = {0: "2x2", 1: "2x4", 3: "4x4"}
    for lam in range(2, p - 1):
        assert torsion_class(ctx, lam) == bucket[len(_halved_roots(p, lam))], lam


def test_square_parameters_always_halve():
    # lambda a square forces a rational 4-torsion point
    for p in (13, 17, 29):
        ctx = make_field_ctx(p)
        for lam in range(2, p - 1):
            lam2 = lam * lam % p
            if lam2 in (0, 1, p - 1):
                continue
            assert torsion_class(ctx, lam2) in ("2x4", "4x4")


def test_short_weierstrass_preserves_trace(ctx11):
    p = 11
    for lam in range(2, p - 1):
        A, B = short_weierstrass(ctx11, lam)
        npoints = 1
        for x in range(p):
            rhs = (x ** 3 + A * x + B) % p
            npoints += 1 if rhs == 0 else (2 if ctx11.qr[rhs] == 1 else 0)
        assert p + 1 - npoints == ap_legendre(ctx11, lam)


def test_isomorphism_is_equivalence(ctx11):
    p = 11
    lams = [lam for lam in range(2, p - 1)]
    for a in lams:
        assert curves_isomorphic(ctx11, a, a)
        for b in lams:
            assert curves_isomorphic(ctx11, a, b) == curves_isomorphic(ctx11, b, a)


def test_iso_class_is_the_literal_isomorphism():
    # every pair at p < 60, a range that holds j = 0 and 1728 (p = 13, 37),
    # generic classes with a_p = 0 (p = 23, 31, 47) and j = 1728 with
    # gcd(4, p - 1) = 4 (p = 17, 41)
    seen = {"j=0": set(), "j=1728": set(), "a_p=0": set()}
    for p in primerange(5, 60):
        ctx = make_field_ctx(p)
        aps = ap_table(ctx)
        keys = {lam: _iso_class(ctx, lam) for lam in range(2, p)}
        for a, ka in keys.items():
            for b, kb in keys.items():
                assert (ka == kb) == curves_isomorphic(ctx, a, b), (p, a, b)
            j = ka[0]
            if j == 0:
                seen["j=0"].add(p)
            elif j == 1728 % p:
                seen["j=1728"].add(p)
            elif aps[a] == 0:
                seen["a_p=0"].add(p)
    assert {13, 37} <= seen["j=0"]
    assert {13, 17, 37, 41} <= seen["j=1728"]
    assert {23, 31, 47} <= seen["a_p=0"]


EXPECTED_SIZES = {
    7: {4: 4},
    11: {4: 8},
    13: {2: 2, 4: 8},
    17: {4: 8, 6: 6},
    23: {4: 20},
    29: {2: 2, 4: 12, 12: 12},
    37: {2: 2, 4: 20, 12: 12},
    73: {4: 40, 6: 6, 12: 24},
    199: {4: 196},
}


@pytest.mark.parametrize("p", sorted(EXPECTED_SIZES))
def test_l_set_size_census(p):
    from collections import Counter
    ctx = make_field_ctx(p)
    sizes = l_set_sizes(ctx)
    assert len(sizes) == p - 3
    hist = Counter(sizes.values())
    assert dict(hist) == EXPECTED_SIZES[p]
    # each class of size k shows up k times, and only even sizes occur
    assert all(v % k == 0 for k, v in hist.items())
    assert set(hist) <= {2, 4, 6, 12}


def test_l_set_matches_batched_sizes(ctx13):
    sizes = l_set_sizes(ctx13)
    for lam in range(2, 12):
        ls = l_set(ctx13, lam)
        assert len(ls) == sizes[lam]
        assert lam in ls
        for mu in ls:
            assert lam in l_set(ctx13, mu)


@pytest.mark.parametrize("p", [11, 13])
def test_census_covers_all_curves(p):
    ctx = make_field_ctx(p)
    census = curve_census(ctx)
    # mass formula: each class accounts for (p-1)/|Aut| models (A, B)
    smooth = sum(1 for A in range(p) for B in range(p)
                 if (4 * A ** 3 + 27 * B * B) % p != 0)
    assert all((p - 1) % c.aut == 0 for c in census)
    assert sum((p - 1) // c.aut for c in census) == smooth
    assert all(abs(c.a_p) <= 2 * math.sqrt(p) for c in census)
    assert all(c.two_rank in (0, 1, 2) for c in census)


def _census_class_by_class(ctx):
    """The census with one cubic evaluation per class: _class_of at every
    model (A, B), in curve_census's order."""
    p, g = ctx.p, ctx.g
    cubes = [x * x * x % p for x in range(p)]
    out = []
    for i in range(math.gcd(4, p - 1)):
        out.append(_class_of(ctx, pow(g, i, p), 0, cubes))
    for i in range(math.gcd(6, p - 1)):
        out.append(_class_of(ctx, 0, pow(g, i, p), cubes))
    d = next(x for x in range(2, p) if ctx.qr[x] == -1)
    for j in range(1, p):
        if j == 1728 % p:
            continue
        k = j * pow(1728 - j, p - 2, p) % p
        A, B = 3 * k % p, 2 * k % p
        out.append(_class_of(ctx, A, B, cubes))
        out.append(_class_of(ctx, A * d * d % p, B * pow(d, 3, p) % p, cubes))
    return tuple(out)


def test_census_matches_the_class_by_class_census():
    # every prime the schoof suite runs on: both classes mod 4 and mod 3,
    # and j = 1728 mod p skipped wherever it falls
    for p in primerange(5, 200):
        ctx = make_field_ctx(p)
        assert curve_census(ctx) == _census_class_by_class(ctx), p
