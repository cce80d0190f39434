from fractions import Fraction

import pytest

from ntlab.ecurve import curve_census
from ntlab.ffield import make_field_ctx
from ntlab import identities as idn
from ntlab import classnumber as cn
from ntlab.primes import primerange


FROZEN_S4PHI = {7: -315, 11: 121, 13: -793, 17: -1717, 19: -1919,
                23: -299, 29: -8265, 31: 2077, 37: 1887}


@pytest.mark.parametrize("p", sorted(FROZEN_S4PHI))
def test_three_routes_agree_on_frozen_values(p, htable):
    ctx = make_field_ctx(p)
    want = FROZEN_S4PHI[p]
    assert idn.s4_direct(ctx) == want
    assert idn.s4_via_ap(ctx, corrected=True) == want
    assert idn.s4_via_classnumbers(p, htable, corrected=True) == want


@pytest.mark.parametrize("p", [7, 11, 13, 41, 43])
def test_uncorrected_routes_differ_by_2p_p_minus_2(p, htable):
    # the as-recorded constant is off by 2p(p-2) on both derivation routes
    ctx = make_field_ctx(p)
    truth = idn.s4_direct(ctx)
    assert idn.s4_via_ap(ctx, corrected=False) - truth == 2 * p * (p - 2)
    assert idn.s4_via_classnumbers(p, htable, corrected=False) - truth == 2 * p * (p - 2)


def test_class_number_route_raises_on_a_remainder(htable):
    # p = 3 mod 4 leaves the mod-16 window empty; one more unit of 12 H* at
    # D = (4p - s^2)/4 with 3 not dividing s moves the sum by 4p s^2 per s,
    # which 12 does not divide
    p = 103
    s = next(s for s in idn.window8(p) if s % 3)
    hstar12 = list(htable.hstar12)
    hstar12[(4 * p - s * s) // 4] += 1
    bad = htable._replace(hstar12=tuple(hstar12))
    assert idn.s4_via_classnumbers(p, htable) == idn.s4_via_ap(make_field_ctx(p))
    with pytest.raises(ArithmeticError):
        idn.s4_via_classnumbers(p, bad)


WINDOWS = {4: idn.window8, 16: idn.window16}


def _literal_window_sum12(p, k, e, table):
    return sum(table.hstar12[(4 * p - s * s) // k] * s ** e
               for s in WINDOWS[k](p))


def _top(p, k):
    return max((4 * p - s * s) // k for s in WINDOWS[k](p))


@pytest.mark.parametrize("p", [97, 101, 89, 109, 107, 103])
def test_window_sums_read_the_table_and_refuse_a_short_one(p):
    # one prime per branch of the sliced reader: p = 1, 5, 9, 13 mod 16 and
    # p = 3, 7 mod 8. p = 1 mod 4 opens both windows, which read D <= p and
    # D <= p/4; at p = 7 mod 8 the mod-8 window reads D = p at s = 0
    ks = (4, 16) if p % 4 == 1 else (4,)
    tops = {k: _top(p, k) for k in ks}
    assert tops[4] <= p and tops.get(16, 0) <= p // 4
    assert (tops[4] == p) == (p % 8 == 7)
    want = idn.s4_via_ap(make_field_ctx(p))
    exact = cn.build_hurwitz_table(tops[4])
    assert idn.s4_via_classnumbers(p, exact) == want
    for k in ks:
        short = cn.build_hurwitz_table(tops[k] - 1)
        for e in (0, 2):
            with pytest.raises(ValueError, match=rf"to D={tops[k] - 1} .* "
                               rf"k={k} window at p={p}, which reads "
                               rf"D={tops[k]}$"):
                idn._window_sum12(p, k, e, short)
    with pytest.raises(ValueError):
        idn.s4_via_classnumbers(p, cn.build_hurwitz_table(tops[4] - 1))
    if p % 4 == 1:
        with pytest.raises(ValueError):
            idn.counting_lemma_check(make_field_ctx(p),
                                     cn.build_hurwitz_table(tops[16] - 1))
    else:
        assert idn._window_sum12(p, 16, 0, cn.build_hurwitz_table(0)) == 0


def test_window_sums_match_the_literal_windows():
    # the sliced reader against the sum over window8 / window16 at every
    # prime, on one table of bound 3000 and on a table sized exactly to each
    # window's top D, whose squares run only just past sigma^2 < p; a table
    # one short of that top raises, and an empty window reads no table
    big, empty = cn.build_hurwitz_table(3000), cn.build_hurwitz_table(0)
    for p in primerange(2, 3000):
        for k in (4, 16):
            want = [_literal_window_sum12(p, k, e, big) for e in (0, 2)]
            assert [idn._window_sum12(p, k, e, big) for e in (0, 2)] == want
            if not WINDOWS[k](p):
                assert want == [0, 0], (p, k)
                assert [idn._window_sum12(p, k, e, empty)
                        for e in (0, 2)] == want, (p, k)
                continue
            top = _top(p, k)
            exact = cn.build_hurwitz_table(top)
            short = cn.build_hurwitz_table(top - 1)
            for e, w in zip((0, 2), want):
                assert idn._window_sum12(p, k, e, exact) == w, (p, k, e)
                with pytest.raises(ValueError, match=f"reads D={top}$"):
                    idn._window_sum12(p, k, e, short)


@pytest.mark.parametrize("p", [7, 11, 19])
def test_sheaf_offset_route(p):
    from ntlab.kloosterman import sheaf_moment
    ctx = make_field_ctx(p)
    s4 = idn.s4_direct(ctx)
    assert idn.sheaf_via_s4(p, s4) == s4 + 3 * p * p
    assert sheaf_moment(ctx, 4) == idn.sheaf_via_s4(p, s4)


def test_cp_count_routes(ctx7, ctx13):
    assert idn.cp_count_brute(ctx7) == idn.cp_count_formula(ctx7) == 214
    assert idn.cp_count_brute(ctx13) == idn.cp_count_formula(ctx13)
    with pytest.raises(ValueError, match="p=103 > 100"):
        idn.cp_count_brute(make_field_ctx(103))


@pytest.mark.parametrize("p", [7, 11, 13, 31, 61])
def test_ap_second_moment(p):
    rec = idn.ap_second_moment_check(make_field_ctx(p))
    assert rec.match
    assert rec.lhs == rec.rhs


def _admissible(p):
    import math
    for n in (1, 2, 4):
        if (p - 1) % n:
            continue
        for s in range(-2 * math.isqrt(p), 2 * math.isqrt(p) + 1):
            if s * s < 4 * p and s % p != 0 and (p + 1 - s) % (n * n) == 0:
                yield n, s


@pytest.mark.parametrize("p", [7, 11, 13, 17])
def test_schoof_counts_exhaustive(p, htable):
    ctx = make_field_ctx(p)
    pairs = list(_admissible(p))
    assert any(n == 2 for n, _ in pairs)
    for n, s in pairs:
        rec = idn.schoof_count_check(ctx, n, s, htable)
        assert rec.match, (p, n, s, rec)
        assert "plain=H" in rec.detail and "weighted=H*" in rec.detail


@pytest.mark.parametrize("p", [13, 53, 61, 197])
def test_schoof_tally_matches_a_scan_of_the_census(p, htable):
    ctx = make_field_ctx(p)
    census = curve_census(ctx)
    has_full = {1: lambda c: True, 2: lambda c: c.two_rank == 2,
                4: lambda c: c.four_full}
    for n, s in _admissible(p):
        hits = [c for c in census if c.a_p == s and has_full[n](c)]
        D = (4 * p - s * s) // (n * n)
        ok_plain = len(hits) == htable.hfull[D]
        ok_weighted = sum(24 // c.aut for c in hits) == htable.hstar12[D]
        want = (len(hits), htable.hfull[D], ok_plain and ok_weighted,
                f"plain={'H' if ok_plain else 'mismatch'} "
                f"weighted={'H*' if ok_weighted else 'mismatch'}")
        rec = idn.schoof_count_check(ctx, n, s, htable)
        assert (rec.lhs, rec.rhs, rec.match, rec.detail) == want, (p, n, s)


def test_schoof_rejects_inadmissible(ctx13, htable):
    with pytest.raises(ValueError):
        idn.schoof_count_check(ctx13, 1, 13, htable)   # p | s
    with pytest.raises(ValueError):
        idn.schoof_count_check(ctx13, 1, 8, htable)    # s^2 > 4p
    with pytest.raises(ValueError):
        idn.schoof_count_check(ctx13, 4, 2, htable)    # 16 does not divide 12
    with pytest.raises(ValueError, match="p=211 > 200"):
        idn.schoof_count_check(make_field_ctx(211), 1, 1, htable)
    # 9 | 14 - 5 and 3 | 12: n = 3 passes every other test
    with pytest.raises(ValueError, match="n must be 1, 2 or 4, got 3"):
        idn.schoof_count_check(ctx13, 3, 5, htable)


def test_schoof_refuses_a_table_short_of_its_discriminant(ctx13):
    # n = 1, s = 1 reads D = 4p - s^2 = 51, past p
    assert idn.schoof_count_check(ctx13, 1, 1,
                                  cn.build_hurwitz_table(51)).match
    with pytest.raises(ValueError, match="to D=50 does not cover D=51"):
        idn.schoof_count_check(ctx13, 1, 1, cn.build_hurwitz_table(50))


@pytest.mark.parametrize("p", [13, 17, 29, 101])
def test_counting_lemma(p, htable):
    rec = idn.counting_lemma_check(make_field_ctx(p), htable)
    assert rec.match and rec.lhs == rec.rhs


def test_counting_lemma_needs_1_mod_4(ctx7, htable):
    with pytest.raises(ValueError):
        idn.counting_lemma_check(ctx7, htable)


@pytest.mark.parametrize("p", [13, 17, 23])
def test_torsion_census(p, htable):
    rec = idn.torsion_census_check(make_field_ctx(p), htable)
    assert rec.match
    # the window sum is exactly its form: p - 3 at 23, (2p - 4)/3 at 13, 17
    assert rec.ratio == 0
    assert rec.lhs == (p - 3 if p % 4 == 3 else (2 * p - 4) / 3)


@pytest.mark.parametrize("p", [29, 37, 53, 31, 43, 47])
def test_windows_collect_residue_classes(p):
    # 29, 37, 53 = 1 mod 4; 43 = 3 and 31, 47 = 7 mod 8
    import math
    w8 = idn.window8(p)
    w16 = idn.window16(p)
    assert set(w16) <= set(w8)
    for s in w8:
        assert s * s < 4 * p and (p + 1 - s) % 8 == 0
        assert (4 * p - s * s) % 4 == 0
    for s in w16:
        assert (p + 1 - s) % 16 == 0 and (4 * p - s * s) % 16 == 0
    scan = range(-2 * math.isqrt(p) - 1, 2 * math.isqrt(p) + 2)
    full = [s for s in scan if s * s < 4 * p and (p + 1 - s) % 8 == 0]
    assert w8 == full
    full16 = [s for s in full
              if (p + 1 - s) % 16 == 0 and (4 * p - s * s) % 16 == 0]
    assert w16 == full16
    if p % 4 == 3:
        assert w16 == []


def test_sweep_claim_registry():
    assert idn.SWEEP_CLAIMS == {"thm1.1": (1, 0), "cor1.2": (1, 0),
                                "prop4.6": (4, 1), "prop4.8": (4, 1),
                                "prop4.9": (8, 3), "prop4.11": (8, 7)}


@pytest.mark.parametrize("which", ["thm1.1", "cor1.2"])
def test_moment_sweeps_bounded(which, htable):
    # the moment claims read every prime
    recs = [idn.asymptotic_record(p, which, htable, 4.0)
            for p in primerange(100, 401)]
    assert all(r.ratio is not None and r.ratio <= 4.0 for r in recs)
    assert [r.p for r in recs] == sorted(r.p for r in recs)


def test_window_sweeps_respect_residue_classes(htable):
    # off its class a window claim raises rather than give a record
    for which, mod, want in (("prop4.6", 4, 1), ("prop4.8", 4, 1),
                             ("prop4.9", 8, 3), ("prop4.11", 8, 7)):
        recs = []
        for p in primerange(7, 301):
            if p % mod == want:
                recs.append(idn.asymptotic_record(p, which, htable, 4.0))
            else:
                with pytest.raises(ValueError, match=f"{which} reads p = "):
                    idn.asymptotic_record(p, which, htable, 4.0)
        assert recs, which
        assert all(r.match and r.ratio <= 4.0 for r in recs)


def test_asymptotic_record_rejects_an_unknown_claim(htable):
    for which in ("prop4.4", "thm6.2", "angles"):
        with pytest.raises(ValueError, match="unknown claim"):
            idn.asymptotic_record(101, which, htable, 4.0)


def test_asymptotic_record_takes_a_threshold(htable):
    rec = idn.asymptotic_record(101, "prop4.8", htable, 4.0)
    assert rec.match and rec.detail == "threshold=4"
    tight = rec.ratio / 2
    assert idn.asymptotic_record(101, "prop4.8", htable, tight) == rec._replace(
        match=False, detail=f"threshold={tight:g}")


def test_prop48_reads_the_undivided_12H_sum():
    # sum over the mod-16 window of 12 H* s^2 is about p^2/2, and of H* s^2
    # about p^2/24; prop4.8 subtracts p^2/2 from the undivided sum
    p = 10009
    table = cn.build_hurwitz_table(p)
    s12 = idn._window_sum12(p, 16, 2, table)
    assert abs(s12 / p ** 2 - 1 / 2) < 0.02
    assert abs(s12 / 12 / p ** 2 - 1 / 24) < 0.02 / 12
    quantity = idn._window_quantity(p, table, "prop4.8")
    assert quantity == s12 - Fraction(p * p, 2)


