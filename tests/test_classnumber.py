import math
from fractions import Fraction

import pytest

from ntlab import classnumber as cn
from ntlab.identities import window16
from ntlab.primes import primerange


@pytest.mark.parametrize("D,h", [(3, 1), (4, 1), (7, 1), (8, 1), (11, 1),
                                 (15, 2), (20, 2), (23, 3), (47, 5), (71, 7)])
def test_class_number_reference_values(D, h):
    assert cn.class_number_h(D) == h


@pytest.mark.parametrize("D", [1, 2, 5, 6, 9, 13])
def test_invalid_discriminants_have_no_forms(D):
    assert cn.class_number_h(D) == 0


def test_weighted_values():
    assert cn.hurwitz_hstar12(0) == -1
    assert cn.hurwitz_hstar12(3) == 4
    assert cn.hurwitz_hstar12(4) == 6
    assert cn.hurwitz_hstar12(12) == 16
    assert Fraction(cn.hurwitz_hstar12(0), 12) == Fraction(-1, 12)
    assert Fraction(cn.hurwitz_hstar12(3), 12) == Fraction(1, 3)
    assert Fraction(cn.hurwitz_hstar12(4), 12) == Fraction(1, 2)
    assert Fraction(cn.hurwitz_hstar12(23), 12) == 3
    with pytest.raises(ValueError):
        cn.hurwitz_hstar12(-4)


def test_unweighted_conductor_sums():
    assert cn.hurwitz_hfull(3) == 1
    assert cn.hurwitz_hfull(4) == 1
    assert cn.hurwitz_hfull(16) == 2   # h(16) + h(4)
    assert cn.hurwitz_hfull(20) == 2


def test_table_agrees_with_single_shot(htable):
    # route 1: batched reduced-forms enumeration; route 2: per-discriminant
    for D in range(0, 300):
        assert htable.hstar12[D] == cn.hurwitz_hstar12(D), D
        assert htable.hfull[D] == cn.hurwitz_hfull(D), D


# conductors far past the f <= 17 that D < 300 reaches, at the CM
# discriminants -3 and -4, whose weights the table corrects per f, and at
# -7 and -8, which it does not
LARGE_CONDUCTOR_D = [f * f * d for f in (30, 42, 60, 66, 70, 105, 210)
                     for d in (3, 4, 7, 8)]


def test_table_agrees_with_per_d_route_at_large_conductors():
    table = cn.build_hurwitz_table(max(LARGE_CONDUCTOR_D))
    for D in [*range(2001), *LARGE_CONDUCTOR_D]:
        assert table.hfull[D] == cn.hurwitz_hfull(D), D
        assert table.hstar12[D] == cn.hurwitz_hstar12(D), D


@pytest.mark.parametrize("bound", range(17))
def test_table_agrees_with_the_oracles_at_every_small_bound(bound):
    # the sieve's first forms and the CM corrections at D = 3, 4, 12 and 16
    # start inside these bounds; the table has exactly bound + 1 entries
    table = cn.build_hurwitz_table(bound)
    assert table.bound == bound
    assert table.hfull == tuple(map(cn.hurwitz_hfull, range(bound + 1)))
    assert table.hstar12 == tuple(map(cn.hurwitz_hstar12, range(bound + 1)))
    assert table.squares == tuple(r * r for r in range(
        math.isqrt(4 * bound + 49) + 1))


def test_table_squares_cover_every_mod16_window_it_serves():
    # a table to D = 8000 serves the mod-16 window of each p = 1 mod 4 whose
    # top D = (p - sigma^2)/4 is at most 8000, so p <= 4 * 8000 + 49, and its
    # squares hold sigma^2 for every sigma^2 < p there
    table = cn.build_hurwitz_table(8000)
    assert len(table.squares) == math.isqrt(4 * 8000 + 49) + 1 == 180
    assert table.squares == tuple(r * r for r in range(180))
    served = [p for p in primerange(5, 4 * 8000 + 50) if p % 4 == 1
              and max([(4 * p - s * s) // 16 for s in window16(p)],
                      default=0) <= 8000]
    assert served[-1] > 4 * 8000
    assert all(math.isqrt(p - 1) < len(table.squares) for p in served)


def test_table_agrees_with_the_oracles_at_every_cm_point():
    # each D = 3f^2 and D = 4f^2 to 32000 takes the CM correction once
    table = cn.build_hurwitz_table(32000)
    cm = sorted({d * f * f for d in (3, 4)
                 for f in range(1, math.isqrt(32000 // d) + 1)})
    assert cm[-1] <= 32000 and len(cm) == 103 + 89
    for D in cm:
        assert table.hfull[D] == cn.hurwitz_hfull(D), D
        assert table.hstar12[D] == cn.hurwitz_hstar12(D), D


@pytest.mark.parametrize("n,val", [(1, Fraction(-1, 6)), (3, Fraction(1, 3)),
                                   (5, 1), (93, Fraction(116, 3))])
def test_eichler_hand_values(n, val, htable):
    assert cn.eichler_lhs(n, htable) == val
    assert cn.eichler_rhs(n) == val


def test_eichler_exact_small_range(htable):
    for n in range(1, 600, 2):
        assert cn.eichler_lhs(n, htable) == cn.eichler_rhs(n)


def test_cohen_coefficients_vanish(htable):
    for ell in range(1, 600, 2):
        assert cn.cohen_coefficient(ell, htable) == 0


def test_divisor_sums():
    sigma, lam1, lam3 = cn.divisor_sums(6)
    assert sigma == 12
    assert lam1 == Fraction(1 + 2 + 2 + 1, 2)
    assert lam3 == Fraction(1 + 8 + 8 + 1, 2)


def test_divisor_sum_table_matches_per_n_sums():
    sigma, lam1x2, lam3x2 = cn.divisor_sum_table(2001)
    assert len(sigma) == len(lam1x2) == len(lam3x2) == 2002
    for n in range(1, 2002):
        s1, l1, l3 = cn.divisor_sums(n)
        assert (sigma[n], lam1x2[n], lam3x2[n]) == (s1, 2 * l1, 2 * l3), n
    assert cn.divisor_sum_table(1) == ([0, 1], [0, 1], [0, 1])


def test_theta_sums_equal_the_per_term_sums(htable):
    for n in range(0, 700):
        smax = math.isqrt(n)
        terms = [(s, htable.hstar12[n - s * s])
                 for s in range(-smax, smax + 1)]
        assert cn.theta_sums12(n, htable) == (
            sum(h for _, h in terms), sum(s * s * h for s, h in terms)), n


def test_theta_sums_raise_past_the_table():
    small = cn.build_hurwitz_table(40)
    cn.theta_sums12(40, small)   # the last n the table covers
    with pytest.raises(ValueError, match="D=40"):
        cn.theta_sums12(41, small)
