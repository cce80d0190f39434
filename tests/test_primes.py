"""ntlab.primes against sympy, the test-side oracle."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ntlab.primes import PROVEN_BOUND, divisors, factorint, isprime, primerange

# strong pseudoprimes to the first k prime bases, k = 1..12 (psi_k), and
# Carmichael numbers, which fool every Fermat test coprime to them
PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747,
                3474749660383, 341550071728321, 3825123056546413051,
                318665857834031151167461)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              321197185, 5394826801, 232250619601, 9746347772161)


def test_isprime_matches_sympy_below_2e5():
    assert [n for n in range(-3, 200_000) if isprime(n)] == \
        [n for n in range(-3, 200_000) if sympy.isprime(n)]


@pytest.mark.parametrize("n", PSEUDOPRIMES + CARMICHAEL)
def test_isprime_rejects_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert not isprime(n)


def test_isprime_near_the_bound():
    # the bound is psi_13: composite, yet a pseudoprime to all 13 bases
    assert not sympy.isprime(PROVEN_BOUND)
    assert all(pow(a, PROVEN_BOUND - 1, PROVEN_BOUND) == 1
               for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
    assert isprime(sympy.prevprime(PROVEN_BOUND)) and isprime(2 ** 61 - 1)
    for n in (PROVEN_BOUND, PROVEN_BOUND + 1, 2 ** 89 - 1):
        with pytest.raises(ValueError):
            isprime(n)


@pytest.mark.parametrize("lo,hi", [(0, 0), (0, 2), (-5, 2), (2, 3), (0, 3),
                                   (10, 10), (30, 20), (-10, 30), (7, 100),
                                   (48, 71), (1500, 1555), (1511, 1554)])
def test_primerange_matches_sympy(lo, hi):
    assert primerange(lo, hi) == list(sympy.primerange(lo, hi))


def test_factorint_and_divisors_match_sympy_below_2e4():
    for n in range(1, 20_000):
        assert factorint(n) == sympy.factorint(n), n
        assert divisors(n) == sympy.divisors(n), n


def test_factorint_and_divisors_reject_nonpositive():
    for f in (factorint, divisors):
        with pytest.raises(ValueError):
            f(0)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2 * 10 ** 5, max_value=PROVEN_BOUND - 2),
       st.integers(min_value=2 * 10 ** 4, max_value=10 ** 9))
def test_large_values_match_sympy(n, m):
    assert isprime(n) == sympy.isprime(n)
    assert isprime(n | 1) == sympy.isprime(n | 1)
    assert list(factorint(m).items()) == sorted(sympy.factorint(m).items())
    assert divisors(m) == sympy.divisors(m)
