import pytest
from hypothesis import given, strategies as st

from ntlab.ffield import legendre_phi, make_field_ctx

PRIMES = (3, 5, 7, 11, 13, 17, 23, 41)


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 100])
def test_rejects_non_odd_primes(bad):
    with pytest.raises(ValueError):
        make_field_ctx(bad)


@pytest.mark.parametrize("p,g", [(7, 3), (11, 2), (13, 2), (23, 5)])
def test_smallest_primitive_root(p, g):
    assert make_field_ctx(p).g == g


@pytest.mark.parametrize("p", PRIMES)
def test_dlog_inverts_exponentiation(p):
    ctx = make_field_ctx(p)
    assert ctx.dlog[0] == -1
    seen = set()
    for x in range(1, p):
        k = ctx.dlog[x]
        assert pow(ctx.g, k, p) == x
        seen.add(k)
    assert seen == set(range(p - 1))


@pytest.mark.parametrize("p", PRIMES)
def test_quadratic_character_euler_criterion(p):
    ctx = make_field_ctx(p)
    assert legendre_phi(ctx, 0) == 0
    for x in range(1, p):
        euler = pow(x, (p - 1) // 2, p)
        assert legendre_phi(ctx, x) == (1 if euler == 1 else -1)


@given(st.sampled_from(PRIMES), st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
def test_dlog_is_multiplicative(p, a, b):
    ctx = make_field_ctx(p)
    x, y = a % p, b % p
    if x == 0 or y == 0:
        return
    assert ctx.dlog[x * y % p] == (ctx.dlog[x] + ctx.dlog[y]) % (p - 1)


def test_inv():
    ctx = make_field_ctx(17)
    for x in range(1, 17):
        assert x * ctx.inv(x) % 17 == 1
