import decimal
import math
import weakref
from contextlib import contextmanager

import pytest
from hypothesis import given, strategies as st

from ntlab import ffield, kloosterman
from ntlab.ecurve import ap_table, curve_census
from ntlab.ffield import (FieldCtx, cyclic_convolve, make_field_ctx,
                          per_prime, release_tables)
from ntlab.kloosterman import kloosterman_table, trig_table
from ntlab.padic import _greene_S_table, _jacobi_table, make_padic_ctx
from ntlab.primes import primerange

PRIMES = (3, 5, 7, 11, 13, 17, 23, 41)


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15, 100])
def test_rejects_non_odd_primes(bad):
    with pytest.raises(ValueError):
        make_field_ctx(bad)


@pytest.mark.parametrize("p,g", [(7, 3), (11, 2), (13, 2), (23, 5)])
def test_smallest_primitive_root(p, g):
    assert make_field_ctx(p).g == g


def test_field_ctx_compares_hashes_and_prints_on_p_and_g():
    ctx = make_field_ctx(7)
    other = FieldCtx(7, 3, (), ())   # the same (p, g), other tables
    assert ctx == other and not ctx != other
    assert hash(ctx) == hash(other)
    assert ctx != FieldCtx(7, 5, ctx.dlog, ctx.qr)
    assert ctx != make_field_ctx(11)
    assert ctx != (7, 3, ctx.dlog, ctx.qr)
    assert repr(ctx) == "FieldCtx(p=7, g=3)"


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
    assert ctx.qr[0] == 0
    for x in range(1, p):
        euler = pow(x, (p - 1) // 2, p)
        assert ctx.qr[x] == (1 if euler == 1 else -1)


@given(st.sampled_from(PRIMES), st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
def test_dlog_is_multiplicative(p, a, b):
    ctx = make_field_ctx(p)
    x, y = a % p, b % p
    if x == 0 or y == 0:
        return
    assert ctx.dlog[x * y % p] == (ctx.dlog[x] + ctx.dlog[y]) % (p - 1)


def _naive_cyclic(u, v, sign=1):
    """The double loop mod x^n - sign: a product that wraps past slot n - 1
    enters with the sign, so sign -1 is the negacyclic product."""
    n = len(u)
    w = [0] * n
    for i in range(n):
        for j in range(n):
            w[(i + j) % n] += (sign if i + j >= n else 1) * u[i] * v[j]
    return w


# cyclic_convolve's two folds, cyclic and negacyclic, which every oracle
# test below runs in turn
SIGNS = (1, -1)


# the multiplier that must not run when the size rule picks the other
_OTHER = {"binary": "_decimal_cyclic", "decimal": "_binary_cyclic"}


@contextmanager
def _forced(path, threshold=None):
    """Within the block, set _BINARY_BITS to threshold and make the
    multiplier other than path raise, so a product that reaches it fails.
    The default threshold sends every product to path: unbounded, or -1,
    below even an all-zero input's n b = 0."""
    if threshold is None:
        threshold = math.inf if path == "binary" else -1
    other = _OTHER[path]

    def refuse(*args):
        raise AssertionError(f"{other} ran")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ffield, "_BINARY_BITS", threshold)
        mp.setattr(ffield, other, refuse)
        yield


def _on_both(compute, *args):
    """compute(*args) on each multiplier in turn; the two results must be
    equal, and the one is returned. The small inputs of the tests below
    would all take the binary one by size."""
    with _forced("binary"):
        got = compute(*args)
    with _forced("decimal"):
        assert compute(*args) == got, "the multipliers differ"
    return got


# entries up to 2^200, past the fixed-point trig entries (about 2^(L+1),
# L = 4 bitlen(p) + 20) of any prime the lab reaches
_entries = st.one_of(st.integers(-3, 3), st.integers(-(2 ** 200), 2 ** 200))


@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.lists(_entries, min_size=n, max_size=n),
                        st.lists(_entries, min_size=n, max_size=n))))
def test_cyclic_convolve_matches_double_loop(uv):
    u, v = uv
    for sign in SIGNS:
        assert (_on_both(cyclic_convolve, u, v, sign)
                == _naive_cyclic(u, v, sign)), sign


@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(_entries, min_size=n, max_size=n)))
def test_cyclic_convolve_squaring_matches_double_loop(u):
    # one list passed twice, as cp_count_brute passes it
    for sign in SIGNS:
        assert (_on_both(cyclic_convolve, u, u, sign)
                == _naive_cyclic(u, u, sign)), sign


@pytest.mark.parametrize("u,v", [
    ([0], [0]), ([5], [-7]), ([0] * 6, [0] * 6),
    ([0, 0, 0], [2 ** 200, -(2 ** 200), 1]),
    ([-1, 2, -3, 4], [4, -3, 2, -1])])
def test_cyclic_convolve_edge_cases(u, v):
    for sign in SIGNS:
        assert (_on_both(cyclic_convolve, u, v, sign)
                == _naive_cyclic(u, v, sign)), sign


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_cyclic_convolve_threshold_is_inclusive(n):
    # n b exactly at _BINARY_BITS is binary, one bit above it decimal; the
    # negacyclic fold's slots hold up to twice the cyclic bound
    m = math.isqrt((2 ** 300 - 1) // n)
    u, v = [m - i for i in range(n)], [m - 3 * i for i in range(n)]
    for sign, top in ((1, n * m * m), (-1, 2 * n * m * m)):
        bits = n * top.bit_length()
        for path, threshold in (("binary", bits), ("decimal", bits - 1)):
            with _forced(path, threshold):
                for a, b in ((u, v), (u, u)):
                    assert (cyclic_convolve(a, b, sign)
                            == _naive_cyclic(a, b, sign)), (path, sign)


def test_cyclic_convolve_slots_past_the_int_str_limit(monkeypatch):
    # each slot is 8 2^14400, 4336 digits, past the default 4300 of
    # sys.get_int_max_str_digits(): the decimal path would parse it from a
    # string and raise, so the binary path takes it at any size
    monkeypatch.setattr(ffield, "_BINARY_BITS", -1)
    u = [2 ** 7200] * 8
    assert cyclic_convolve(u, [2 ** 7200] * 8) == [8 * 2 ** 14400] * 8
    assert cyclic_convolve(u, u) == [8 * 2 ** 14400] * 8


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (3, 9), (5, 26), (8, 26)])
def test_cyclic_convolve_tight_slot_width(n, k):
    # every product is +max|u| max|v|, and the bound of a slot, n m^2, or
    # 2 n m^2 for the negacyclic fold's shifted slots, is just under
    # 2^(8k - 1): the sign bit of a k-byte slot is the only bit to spare
    for sign, top in ((1, n), (-1, 2 * n)):
        m = math.isqrt((2 ** (8 * k - 1) - 1) // top)
        assert (top * m * m).bit_length() == 8 * k - 1
        for s in (1, -1):
            u = [s * m] * n
            want = _naive_cyclic(u, u, sign)
            assert want[-1] == n * m * m
            assert _on_both(cyclic_convolve, u, [s * m] * n, sign) == want
            assert _on_both(cyclic_convolve, u, u, sign) == want


def _kronecker_cyclic(u, v):
    """The independent signed-slot oracle of both of cyclic_convolve's
    multipliers: each input packed into one integer, a byte-aligned slot
    per entry (Kronecker substitution) holding it offset by half the slot,
    the slot width sized by bit_length, so no int-str conversion is
    involved."""
    n = len(u)
    mu, mv = (max(map(abs, x), default=0) for x in (u, v))
    nbytes = (max(n * mu * mv, mu, mv).bit_length() + 8) // 8
    half = 1 << (8 * nbytes - 1)
    offset = int.from_bytes((bytes(nbytes - 1) + b"\x80") * 2 * n, "little")

    def pack(xs):
        raw = b"".join((x + half).to_bytes(nbytes, "little") for x in xs)
        return int.from_bytes(raw, "little") - (offset >> (8 * nbytes * n))

    raw = (pack(u) * pack(v) + offset).to_bytes(2 * n * nbytes, "little")
    c = [int.from_bytes(raw[i:i + nbytes], "little") - half
         for i in range(0, 2 * n * nbytes, nbytes)]
    return [a + b for a, b in zip(c[:n], c[n:])]


def _kloosterman_inputs(p):
    """kloosterman_table's two inputs: phi(-1) m, with m(u^2) = 2 C[2u] for
    0 < u < p/2 and m(0) = C[0] over the cosine table C, and phi."""
    qr, C = make_field_ctx(p).qr, trig_table(p).cos
    m = [0] * p
    m[0] = qr[-1] * C[0]
    for u in range(1, (p + 1) // 2):
        m[u * u % p] = 2 * qr[-1] * C[2 * u]
    return m, list(qr)


def _ap_inputs(p):
    """ap_table's two inputs: phi(x) phi(x-1) and phi."""
    qr = make_field_ctx(p).qr
    return [qr[x] * qr[x - 1] for x in range(p)], list(qr)


LAB_PRIMES = [*primerange(3, 1600), 7919]


def test_cyclic_convolve_equals_the_kronecker_product_on_the_lab_tables():
    for p in LAB_PRIMES:
        u, v = _kloosterman_inputs(p)
        for a, b in ((u, v), (u, u), _ap_inputs(p)):
            assert cyclic_convolve(a, b) == _kronecker_cyclic(a, b), p


@pytest.mark.parametrize("p", [61, 1531])
def test_lab_tables_agree_across_both_multipliers(p):
    # by size, every product at p = 61 is binary, and at 1531 all but
    # ap_table's are decimal; forced either way, each table is the same
    def tables():
        release_tables()
        ctx, pctx = make_field_ctx(p), make_padic_ctx(p)
        out = (kloosterman_table(ctx), ap_table(ctx), _jacobi_table(pctx),
               _greene_S_table(pctx))
        release_tables()
        return out

    _on_both(tables)


def test_kloosterman_input_folds_the_cosine_of_every_root():
    # the exact mirror C[p - k] = C[k] that lets kloosterman_table read only
    # u < p/2: its input is phi(-1) times the sum of C[2u] over every u with
    # u^2 = s, and the table is that input's product with phi, at primes
    # 1 and 3 mod 4 on both sides of the binary-decimal crossover
    for p in LAB_PRIMES:
        ctx, C = make_field_ctx(p), trig_table(p).cos
        m = [0] * p
        for u in range(p):
            m[u * u % p] += ctx.qr[-1] * C[2 * u % p]
        assert _kloosterman_inputs(p)[0] == m, p
        if p in (3, 5, 7, 13, 101, 103, 1021, 1031, 1033, 7919):
            K, _, _ = kloosterman_table(ctx)
            assert K[1:] == tuple(cyclic_convolve(m, ctx.qr)[1:]), p


@pytest.mark.parametrize("k", [1, 2, 19, 20, 43, 120])
def test_cyclic_convolve_all_nines_slots(k):
    # every cyclic slot of the product is 9 (10^k - 1)/9 = 10^k - 1, all
    # nines at the widest slot value the inputs can give; negacyclic, the
    # last slot, which nothing wraps into, is that sum too
    rep = (10 ** k - 1) // 9
    for u, last in (([1] * 9, 10 ** k - 1), ([-1] * 9, 1 - 10 ** k),
                    ([0] * 8 + [9], 10 ** k - 1)):
        for sign in SIGNS:
            want = _naive_cyclic(u, [rep] * 9, sign)
            assert want[-1] == last
            assert _on_both(cyclic_convolve, u, [rep] * 9, sign) == want


@pytest.mark.parametrize("u,v", [
    ([-3, -5, -7], [-2, -9, -1]), ([-(2 ** 90)] * 4, [-1, -2, -3, -4]),
    ([-1] * 5, [1] * 5), ([0] * 7, [0] * 7), ([0, 0], [-5, 3]), ([], []),
    ([-4], [6]), ([7], [7])])
def test_cyclic_convolve_negative_zero_and_empty(u, v):
    for sign in SIGNS:
        assert (_on_both(cyclic_convolve, u, v, sign)
                == _naive_cyclic(u, v, sign)), sign


def test_cyclic_convolve_ignores_the_thread_decimal_context():
    u, v = _kloosterman_inputs(101)
    want = _kronecker_cyclic(u, v)
    with decimal.localcontext() as ctx:
        ctx.prec = 5
        ctx.Emax = 10
        ctx.traps[decimal.Inexact] = True
        assert _on_both(cyclic_convolve, u, v) == want
        assert decimal.getcontext().prec == 5


def test_cyclic_convolve_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        cyclic_convolve([1, 2], [1, 2, 3])
    for sign in (0, 2, -2):
        with pytest.raises(ValueError):
            cyclic_convolve([1, 2], [1, 2], sign)


def test_per_prime_holds_one_prime_and_releases_it_before_a_rebuild():
    class Table:
        pass

    built, refs = [], {}

    def builder(name):
        @per_prime
        def build(p):
            # no table of another prime is alive when one for p is built
            assert all(r() is None for (_, q), r in refs.items() if q != p)
            t = Table()
            refs[name, p] = weakref.ref(t)
            built.append((name, p))
            return t
        return build

    a, b = builder("a"), builder("b")
    ta = a(7)
    assert a(7) is ta
    b(7)
    assert a(7) is ta       # another builder at the same prime keeps it
    del ta
    b(11)
    a(7)
    assert built == [("a", 7), ("b", 7), ("b", 11), ("a", 7)]
    release_tables()
    assert all(r() is None for r in refs.values())


def test_per_prime_keeps_each_set_of_arguments(monkeypatch):
    # a second degree no longer evicts the first: 4, 6, 4 build twice
    builds, real = [], kloosterman.kloosterman_table

    def counting(ctx):
        builds.append(ctx.p)
        return real(ctx)

    monkeypatch.setattr(kloosterman, "kloosterman_table", counting)
    ctx = make_field_ctx(13)
    release_tables()
    four = kloosterman._power_sums(ctx, 4)
    six = kloosterman._power_sums(ctx, 6)
    assert kloosterman._power_sums(ctx, 4) is four
    assert kloosterman._power_sums(ctx, 6) is six
    assert builds == [13, 13]
    release_tables()


def test_equal_contexts_share_their_tables():
    a = make_field_ctx(13)
    release_tables()
    b = make_field_ctx(13)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != make_field_ctx(17)
    assert kloosterman_table(a) is kloosterman_table(b)


def test_shared_tables_are_immutable(htable):
    # every check at a prime reads the same object, and every suite of a run
    # the same Hurwitz table, so none may change it
    ctx = make_field_ctx(13)
    K, _, _ = kloosterman_table(ctx)
    P, M, _ = kloosterman._power_sums(ctx, 4)
    for table in (kloosterman_table(ctx), K, P, M, ap_table(ctx),
                  curve_census(ctx), ctx.qr, ctx.dlog, trig_table(13).cos,
                  htable.hfull, htable.hstar12):
        with pytest.raises(TypeError):
            table[1] = 0
