"""Acceptance gate: one test per criterion, one pass/fail line each.

Every criterion is checked at its stated tolerance and prime range. Two of
them pin the fourth-moment constants to the values recorded in the source
material; those constants disagree with all independent computational routes
here (certified fixed-point sums, trace sums, class-number windows), so the
two tests fail, with the exact discrepancy printed. The remaining criteria
pass. Nothing in this module weakens a bound to make a test green.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

from sympy import primerange

from ntlab import classnumber as cn
from ntlab import identities as idn
from ntlab import padic as pa
from ntlab.ecurve import ap_table, l_set_sizes, twist_relation_misses
from ntlab.ffield import make_field_ctx
from ntlab.kloosterman import (closed_forms, sheaf_moment, twisted_moment,
                               untwisted_moment)


def _report(num, label, ok, detail, t0):
    line = (f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} "
            f"({time.perf_counter() - t0:.1f}s) {detail}")
    print(line, flush=True)
    return line


def test_c1_closed_form_moments():
    """Closed forms S(1), S(2), S(4), S(2,phi), M(4,phi) for 5 < p <= 2000."""
    t0 = time.perf_counter()
    bad = []
    s4_gaps_are_3p = True
    for p in primerange(7, 2001):
        ctx = make_field_ctx(p)
        forms = closed_forms(p)
        phi = ctx.phi_idx()
        s4phi = twisted_moment(ctx, 4, phi)
        got = {
            "S1": (untwisted_moment(ctx, 1), forms["S1"]),
            "S2": (untwisted_moment(ctx, 2), forms["S2"]),
            "S4": (untwisted_moment(ctx, 4), forms["S4"]),
            "S2phi": (twisted_moment(ctx, 2, phi), forms["S2phi"]),
            "M4phi": (sheaf_moment(ctx, 4), s4phi + 3 * p * p),
        }
        for name, (lhs, rhs) in got.items():
            if lhs != rhs:
                bad.append((p, name, lhs, rhs))
                if name == "S4":
                    s4_gaps_are_3p &= (rhs - lhs == 3 * p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"runtime target exceeded: {elapsed:.0f}s"
    only_s4 = bool(bad) and all(name == "S4" for _, name, _, _ in bad)
    detail = ("all five families exact" if not bad else
              f"{len(bad)} mismatches; S4-only={only_s4}, "
              f"every S4 gap = 3p: {s4_gaps_are_3p} "
              f"(recorded constant -1 should be -3p-1)")
    line = _report(1, "closed-form moments", not bad, detail, t0)
    assert not bad, line


def test_c2_tri_route_twisted_fourth_moment(htable):
    """Three independent S(4,phi) routes for 5 < p <= 1000, plus the two
    stated spot values."""
    t0 = time.perf_counter()
    route_splits = []
    spots = {}
    branches = {1: 0, 3: 0}
    for p in primerange(7, 1001):
        ctx = make_field_ctx(p)
        direct = idn.s4_direct(ctx)
        via_ap = idn.s4_via_ap(ctx, corrected=True)
        via_cn = idn.s4_via_classnumbers(p, htable, corrected=True)
        if not direct == via_ap == via_cn:
            route_splits.append((p, direct, via_ap, via_cn))
        if p in (7, 13):
            spots[p] = direct
        branches[p % 4] += 1
    assert branches[1] > 0 and branches[3] > 0
    routes_ok = not route_splits
    spots_ok = spots == {7: -245, 13: -507}
    detail = (f"route equality: {routes_ok} "
              f"(certified direct = trace route = class-number route); "
              f"spot values got S(4,phi)_7={spots[7]}, S(4,phi)_13={spots[13]}, "
              f"want -245, -507; stated-minus-computed = 2p(p-2): "
              f"{-245 - spots[7] == 2 * 7 * 5}, "
              f"{-507 - spots[13] == 2 * 13 * 11}")
    line = _report(2, "tri-route S(4,phi)", routes_ok and spots_ok, detail, t0)
    assert routes_ok, line
    assert spots_ok, line


def test_c3_cp_and_ap_chains():
    """C_p brute force = formula for 5 < p <= 100; the a_p chain identity
    for 5 < p <= 500."""
    t0 = time.perf_counter()
    for p in primerange(7, 101):
        ctx = make_field_ctx(p)
        assert idn.cp_count_brute(ctx) == idn.cp_count_formula(ctx), p
    failures = [p for p in primerange(7, 501)
                if not idn.ap_second_moment_check(make_field_ctx(p)).match]
    line = _report(3, "C_p / A_p chains", not failures,
                   f"brute=formula to 100, chain to 500, failures={failures}", t0)
    assert not failures, line


def test_c4_class_number_engine(htable):
    """Eichler exact for odd n <= 5000; Cohen coefficients reported with
    |c(l)| / l^1.5 <= 0.01."""
    t0 = time.perf_counter()
    bad_eichler = [n for n in range(1, 5001, 2)
                   if cn.eichler_lhs(n, htable) != cn.eichler_rhs(n)]
    worst = 0.0
    nonzero = 0
    for ell in range(1, 5001, 2):
        c = cn.cohen_coefficient(ell, htable)
        if c != 0:
            nonzero += 1
            worst = max(worst, abs(float(c)) / ell ** 1.5)
    ok = not bad_eichler and worst <= 0.01
    line = _report(4, "class-number engine", ok,
                   f"eichler failures={bad_eichler[:5]}, cohen nonzero "
                   f"coefficients={nonzero}, worst |c|/l^1.5={worst:.3g}", t0)
    assert ok, line


def test_c5_torsion_and_census(htable):
    """Twist relations, L(lambda) cardinalities and trace-by-trace census
    counts for p <= 200; the half-sum counting identity to 1000."""
    t0 = time.perf_counter()
    problems = []
    for p in primerange(7, 201):
        ctx = make_field_ctx(p)
        problems += [("twist", p, lam) for lam in twist_relation_misses(ctx)]
        sizes = l_set_sizes(ctx)
        hist = Counter(sizes.values())
        if len(sizes) != p - 3 or not set(hist) <= {2, 4, 6, 12} \
                or any(v % k for k, v in hist.items()):
            problems.append(("l-set", p, dict(hist)))
        for n in (1, 2, 4):
            if (p - 1) % n:
                continue
            for s in range(-2 * math.isqrt(p) - 1, 2 * math.isqrt(p) + 2):
                if s * s >= 4 * p or s % p == 0 or (p + 1 - s) % (n * n):
                    continue
                rec = idn.schoof_count_check(ctx, n, s, htable)
                if not rec.match:
                    problems.append(("schoof", p, n, s))
    for p in primerange(7, 1001):
        if p % 4 == 1 and not idn.counting_lemma_check(make_field_ctx(p), htable).match:
            problems.append(("counting", p))
    line = _report(5, "torsion and census", not problems,
                   f"problems={problems[:5]}", t0)
    assert not problems, line


def test_c6_padic_engine():
    """Gauss-sum multiplication exhaustive to 50 and sampled to 200,
    Hasse-Davenport and the Gamma_p product formulas, and the trace formula
    for the 2F1 values, all p <= 200."""
    t0 = time.perf_counter()
    problems = []
    for p in primerange(7, 201):
        ctx = pa.make_padic_ctx(p, 3)
        pairs = ([(a, b) for a in range(1, p - 1) for b in range(1, p - 1)]
                 if p <= 50 else
                 [(rng.randrange(1, p - 1), rng.randrange(1, p - 1))
                  for rng in [random.Random(1729 ^ p)] for _ in range(50)])
        for a, b in pairs:
            if not pa.gk_consistency_check(ctx, a, b).match:
                problems.append(("gk", p, a, b))
        if p <= 50:
            for m in (2, 3):
                if (p - 1) % m:
                    continue
                for sidx in range(p - 1):
                    if not pa.hasse_davenport_check(ctx, m, sidx).match:
                        problems.append(("hd", p, m, sidx))
            for t in (2, 3, 4, 6, 12):
                for j in range(p - 1):
                    if not pa.gamma_product_checks(ctx, t, j).match:
                        problems.append(("gamma-product", p, t, j))
        aps = ap_table(ctx.field)
        phi_m1 = ctx.field.qr[p - 1]
        for lam in range(2, p):
            got = pa.greene_2f1_fraction(ctx, lam)
            if got != Fraction(-phi_m1 * int(aps[lam]), p):
                problems.append(("greene", p, lam))
    line = _report(6, "p-adic engine", not problems,
                   f"problems={problems[:5]}", t0)
    assert not problems, line


def test_c7_weighted_gfun_identities():
    """The three weighted hypergeometric identities mod p^6 for p <= 200."""
    t0 = time.perf_counter()
    problems = []
    for p in primerange(7, 201):
        ctx = pa.make_padic_ctx(p, 6)
        if p % 3 == 1 and not pa.prop64_check(ctx).match:
            problems.append(("3g3", p))
        if p % 3 == 2 and not pa.prop65_check(ctx).match:
            problems.append(("9g9", p))
        if not pa.prop66_check(ctx).match:
            problems.append(("backbone", p))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"runtime target exceeded: {elapsed:.0f}s"
    line = _report(7, "weighted G-function identities", not problems,
                   f"problems={problems}", t0)
    assert not problems, line


def test_c8_bounded_ratio_sweeps(htable):
    """Normalized moment and window ratios stay below 4 for 100 <= p <= 2000."""
    t0 = time.perf_counter()
    worst = {}
    for claim in ("thm1.1", "cor1.2", "prop4.6", "prop4.8", "prop4.9",
                  "prop4.11"):
        modulus, residue = idn.SWEEP_CLAIMS[claim]
        recs = [idn.asymptotic_record(p, claim, htable, 4.0)
                for p in primerange(100, 2001) if p % modulus == residue]
        assert recs, claim
        worst[claim] = max(r.ratio for r in recs)
    ok = all(v <= 4.0 for v in worst.values())
    line = _report(8, "bounded-ratio sweeps", ok,
                   " ".join(f"{k}={v:.3f}" for k, v in worst.items()), t0)
    assert ok, line


def test_c9_gfun_magnitude_trends():
    """|T(p)| falls from the smallest to the largest admissible p <= 300 for
    the 3G3 family; |T(p)|/p^2 likewise for the 9G9 family."""
    t0 = time.perf_counter()
    recs2 = [pa.theorem62_record(pa.make_padic_ctx(p))
             for p in primerange(7, 301) if p % 6 == 1]
    recs3 = [pa.theorem63_record(pa.make_padic_ctx(p))
             for p in primerange(7, 301) if p % 3 == 2]
    ok2, ok3 = pa.sweep_trend_ok(recs2), pa.sweep_trend_ok(recs3)
    line = _report(9, "G-function magnitude trends", ok2 and ok3,
                   f"3G3 {recs2[0].ratio:.3f}@{recs2[0].p} -> "
                   f"{recs2[-1].ratio:.3f}@{recs2[-1].p}; "
                   f"9G9 {recs3[0].ratio:.4f}@{recs3[0].p} -> "
                   f"{recs3[-1].ratio:.4f}@{recs3[-1].p}", t0)
    assert ok2 and ok3, line
