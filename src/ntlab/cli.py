"""Command-line orchestration: identity suites over prime sweeps, asymptotic
ratio tables, and direct G-function evaluation.

Exit status contract: `verify` returns 0 iff every emitted record matches.
Output determinism: records are timed only under --timings, and their timing
column is 0 otherwise, so identical configurations produce a byte-identical
CSV report at any worker count and under any multiprocessing start method.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import cache, partial
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from . import classnumber as cn
from . import identities as idn
from . import kloosterman as km
from . import padic as pa
from .ecurve import l_set_sizes, twist_relation_misses
from .ffield import make_field_ctx, per_prime, release_tables
from .primes import isprime, primerange
from .records import (SCHEMA_HEADER, VerificationRecord, merge_records,
                      records_to_csv)

class _RunFields(NamedTuple):
    pmin: int = 7
    pmax: int = 97
    nmax: int = 999
    suites: tuple = ()
    workers: int = 1
    threshold: float = 4.0
    timings: bool = False
    seed: int = 1729


class RunConfig(_RunFields):
    """A validated run. The constructor, _make, _replace and unpickling at
    any protocol all pass through __new__, which rejects a bad value and
    normalises the suites: 'all' names every suite, a repeat runs once."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        f = _RunFields(*args, **kwargs)
        if f.pmin <= 5:
            raise ValueError("suites assume p > 5; pass --pmin 7 or higher")
        if f.pmin > f.pmax:
            raise ValueError(f"--pmin {f.pmin} exceeds --pmax {f.pmax}")
        if f.nmax < 1:
            raise ValueError(f"--nmax must be >= 1, got {f.nmax}")
        if f.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {f.workers}")
        if not f.threshold >= 0:   # NaN fails this too
            raise ValueError(f"--threshold must be >= 0, got {f.threshold}")
        suites = SUITE_NAMES if "all" in f.suites else f.suites
        unknown = set(suites) - set(SUITE_NAMES)
        if unknown:
            raise ValueError(f"unknown suites: {', '.join(sorted(unknown))}")
        return super().__new__(
            cls, *f._replace(suites=tuple(dict.fromkeys(suites))))

    @classmethod
    def _make(cls, iterable):
        # the namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    def __reduce__(self):
        # protocols 0 and 1 would rebuild the tuple past __new__
        return type(self), tuple(self)


# --- suites -------------------------------------------------------------------

def _collapse(p: int, name: str,
              recs: list[VerificationRecord]) -> VerificationRecord:
    fails = [r for r in recs if not r.match]
    detail = f"checks={len(recs)} fails={len(fails)}"
    if fails:
        detail += " first=" + fails[0].name
    return VerificationRecord(p, name, len(recs) - len(fails), len(recs),
                              not fails, detail=detail)


def _suite_moments(p: int, cfg: RunConfig, table) -> list[VerificationRecord]:
    ctx = make_field_ctx(p)
    cf = km.closed_forms(p)
    phi = (p - 1) // 2
    out = []

    def rec(name, lhs, rhs):
        out.append(VerificationRecord(p, name, lhs, rhs, lhs == rhs))

    rec("S1-closed", km.untwisted_moment(ctx, 1), cf["S1"])
    rec("S2-closed", km.untwisted_moment(ctx, 2), cf["S2"])
    s3 = km.untwisted_moment(ctx, 3)
    c3 = 1 if p % 3 == 1 else -1
    rec("S3-fit", s3, c3 * p * p + 2 * p + 1)
    s4 = km.untwisted_moment(ctx, 4)
    rec("S4-closed-printed", s4, cf["S4"])
    rec("S4-closed-corrected", s4, cf["S4corrected"])
    s4phi = km.twisted_moment(ctx, 4, phi)
    rec("S2phi-closed", km.twisted_moment(ctx, 2, phi), cf["S2phi"])
    rec("S1phi-closed", km.twisted_moment(ctx, 1, phi), ctx.qr[p - 1] * p)
    rec("M4phi-offset", km.sheaf_moment(ctx, 4), s4phi + 3 * p * p)
    rec("M1phi-closed", km.sheaf_moment(ctx, 1), -ctx.qr[p - 1] * p)
    return out


def _suite_triroute(p: int, cfg: RunConfig, table) -> list[VerificationRecord]:
    ctx = make_field_ctx(p)
    direct = idn.s4_direct(ctx)
    via_ap = idn.s4_via_ap(ctx, corrected=True)
    via_h = idn.s4_via_classnumbers(p, table, corrected=True)
    printed_ap = idn.s4_via_ap(ctx, corrected=False)
    printed_h = idn.s4_via_classnumbers(p, table, corrected=False)
    match = direct == via_ap == via_h
    return [VerificationRecord(
        p, "s4-triroute", direct, via_ap, match,
        detail=f"h-route={via_h} printed-ap={printed_ap} "
               f"printed-h={printed_h}")]


def _suite_cp(p: int, cfg: RunConfig, table) -> list[VerificationRecord]:
    ctx = make_field_ctx(p)
    out = [idn.ap_second_moment_check(ctx)]
    if p <= idn.CP_CAP:
        brute = idn.cp_count_brute(ctx)
        formula = idn.cp_count_formula(ctx)
        out.append(VerificationRecord(p, "cp-count", brute, formula,
                                      brute == formula))
    return out


def _twelfths(x: int) -> str:
    """str(Fraction(x, 12)), without building the Fraction."""
    g = math.gcd(x, 12)
    return str(x // g) if g == 12 else f"{x // g}/{12 // g}"


# eichler and cohen compare twelfths as integers: the Hurwitz side is the
# table's 12 H* sums, the divisor side one sieve to nmax
@per_prime
def _odd_n_sums(nmax: int, table: cn.HurwitzTable) -> tuple[list, ...]:
    """The one pass both suites read: divisor_sum_table(nmax), and
    theta_sums12 at every odd n <= nmax, in order. per_prime keys it by
    (nmax, table), with nmax in a prime's place, so the suites of one run
    share it and it is dropped like a prime's tables; the key's hash reads
    the table's two tuples at each call."""
    return (*cn.divisor_sum_table(nmax),
            [cn.theta_sums12(n, table) for n in range(1, nmax + 1, 2)])


def _suite_eichler(_: int, cfg: RunConfig, table) -> list[VerificationRecord]:
    sigma, lam1x2, _, theta = _odd_n_sums(cfg.nmax, table)
    out = []
    for n, (lhs, _) in zip(range(1, cfg.nmax + 1, 2), theta):
        rhs = 4 * sigma[n] - 6 * lam1x2[n]   # 12 (sigma_1/3 - lambda_1)
        # the index column holds n: these records sweep odd n, not primes
        out.append(VerificationRecord(n, "eichler", _twelfths(lhs),
                                      _twelfths(rhs), lhs == rhs))
    return out


def _suite_cohen(_: int, cfg: RunConfig, table) -> list[VerificationRecord]:
    _, _, lam3x2, theta = _odd_n_sums(cfg.nmax, table)
    out = []
    for ell, (plain, weighted) in zip(range(1, cfg.nmax + 1, 2), theta):
        c12 = 4 * weighted - ell * plain + 6 * lam3x2[ell]   # 12 c(l)
        miss = abs(float(Fraction(c12, 12))) / ell ** 1.5 if c12 else 0.0
        out.append(VerificationRecord(ell, "cohen", _twelfths(c12), "0",
                                      c12 == 0, ratio=miss))
    return out


def _suite_curves(p: int, cfg: RunConfig, table) -> list[VerificationRecord]:
    ctx = make_field_ctx(p)
    twists = twist_relation_misses(ctx)
    hist = Counter(l_set_sizes(ctx).values())
    # L(lambda) carries both signs of each mu, so sizes are 2, 4, 6 or 12,
    # and each size-k class contributes k lambdas to the tally
    ok = (set(hist) <= {2, 4, 6, 12}
          and all(v % k == 0 for k, v in hist.items()))
    out = [
        VerificationRecord(p, "twist-relations", len(twists), 0, not twists),
        VerificationRecord(p, "l-set-sizes", sum(hist.values()), p - 3,
                           ok and sum(hist.values()) == p - 3,
                           detail=" ".join(f"{k}:{v}" for k, v
                                           in sorted(hist.items()))),
        idn.torsion_census_check(ctx, table),
    ]
    return out


def _admissible_schoof(p: int) -> list[tuple[int, int]]:
    pairs = []
    smax = math.isqrt(4 * p - 1)
    for n in (1, 2, 4):
        if (p - 1) % n:
            continue
        for s in range(-smax, smax + 1):
            if s % p == 0 or (p + 1 - s) % (n * n):
                continue
            pairs.append((n, s))
    return pairs


def _suite_schoof(p: int, cfg: RunConfig, table) -> list[VerificationRecord]:
    ctx = make_field_ctx(p)
    recs = [idn.schoof_count_check(ctx, n, s, table)
            for n, s in _admissible_schoof(p)]
    return [_collapse(p, "schoof-census", recs)]


def _suite_counting(p: int, cfg: RunConfig, table) -> list[VerificationRecord]:
    return [idn.counting_lemma_check(make_field_ctx(p), table)]


def _suite_gk(p: int, cfg: RunConfig, table) -> list[VerificationRecord]:
    ctx = pa.make_padic_ctx(p)
    q = p - 1
    rng = random.Random(cfg.seed ^ p)
    if p <= 50:
        pairs = [(a, b) for a in range(1, q) for b in range(1, q)]
    else:
        pairs = [(rng.randrange(1, q), rng.randrange(1, q)) for _ in range(50)]
    gk = [pa.gk_consistency_check(ctx, a, b) for a, b in pairs]
    out = [_collapse(p, "gk-consistency", gk)]
    for m in (2, 3):
        if q % m:
            continue
        sidxs = range(q) if p <= 50 else sorted(
            rng.sample(range(q), min(q, 20)))
        hd = [pa.hasse_davenport_check(ctx, m, s) for s in sidxs]
        out.append(_collapse(p, f"hd-m{m}", hd))
    jidxs = range(q) if p <= 50 else sorted(rng.sample(range(q), min(q, 12)))
    gp = [pa.gamma_product_checks(ctx, t, j)
          for t in (2, 3, 4, 6, 12) for j in jidxs]
    out.append(_collapse(p, "gamma-products", gp))
    return out


def _padic(check: str, p: int, cfg: RunConfig,
           table) -> list[VerificationRecord]:
    # looked up by name at call time, so that a wrapper installed on the
    # padic module attribute after import still sees the call
    return [getattr(pa, check)(pa.make_padic_ctx(p))]


def _sweep_window(claim: str, p: int, cfg: RunConfig,
                  table) -> list[VerificationRecord]:
    return [idn.asymptotic_record(p, claim, table, cfg.threshold)]


# --- the suite registry -------------------------------------------------------

class Suite(NamedTuple):
    """`run(index, cfg, table)` gives the records of one index of
    `indices(cfg)`; `bound(cfg)` is the largest Hurwitz D read, if any."""
    name: str
    run: Callable[..., list[VerificationRecord]]
    indices: Callable[[RunConfig], Iterable[int]]
    bound: Callable[[RunConfig], int] | None = None


def _primes(cfg: RunConfig, modulus: int = 1, residue: int = 0) -> list[int]:
    return [p for p in primerange(cfg.pmin, cfg.pmax + 1)
            if p % modulus == residue]


def _census_primes(cfg: RunConfig) -> Iterable[int]:
    return primerange(cfg.pmin, min(cfg.pmax, idn.CENSUS_CAP) + 1)


def _once(cfg: RunConfig) -> tuple[int]:
    return (0,)   # eichler and cohen sweep odd n <= nmax in one task


def _window_bound(cfg: RunConfig) -> int:
    # the windows read H* at (4p - s^2)/4 and (4p - s^2)/16, both <= p
    return cfg.pmax


def _schoof_bound(cfg: RunConfig) -> int:
    # the n = 1 check reads 4p - s^2, up to 4p - 1, on census primes only
    return 4 * min(cfg.pmax, idn.CENSUS_CAP)


def _nmax_bound(cfg: RunConfig) -> int:
    return cfg.nmax


_VERIFY = (
    Suite("moments", _suite_moments, _primes),
    Suite("s4-triroute", _suite_triroute, _primes, _window_bound),
    Suite("cp-chain", _suite_cp, _primes),
    Suite("eichler", _suite_eichler, _once, _nmax_bound),
    Suite("cohen", _suite_cohen, _once, _nmax_bound),
    Suite("curves", _suite_curves, _primes, _window_bound),
    Suite("schoof", _suite_schoof, _census_primes, _schoof_bound),
    Suite("counting", _suite_counting, partial(_primes, modulus=4, residue=1),
          _window_bound),
    Suite("gk", _suite_gk, _primes),
    Suite("greene", partial(_padic, "greene_check"), _primes),
    Suite("prop6.4", partial(_padic, "prop64_check"),
          partial(_primes, modulus=6, residue=1)),
    Suite("prop6.5", partial(_padic, "prop65_check"),
          partial(_primes, modulus=3, residue=2)),
    Suite("prop6.6", partial(_padic, "prop66_check"), _primes),
)

_CLAIMS = (
    *(Suite(c, partial(_sweep_window, c),
            partial(_primes, modulus=m, residue=r), _window_bound)
      for c, (m, r) in idn.SWEEP_CLAIMS.items()),
    Suite("thm6.2", partial(_padic, "theorem62_record"),
          partial(_primes, modulus=6, residue=1)),
    Suite("thm6.3", partial(_padic, "theorem63_record"),
          partial(_primes, modulus=3, residue=2)),
)

# the one registry: verify runs the first names, sweep the claims
_SUITES = {s.name: s for s in (*_VERIFY, *_CLAIMS)}
SUITE_NAMES = tuple(s.name for s in _VERIFY)
SWEEP_NAMES = (*(s.name for s in _CLAIMS), "angles")


# --- the task runner ----------------------------------------------------------

_worker_table: cn.HurwitzTable | None = None


def _init_worker(table: cn.HurwitzTable | None) -> None:
    """The pool initializer, also called before a serial run."""
    global _worker_table
    _worker_table = table


def _run_task(task) -> list[VerificationRecord]:
    """One index of one suite. Under --timings it is timed once and the
    time is split evenly over the task's records. A failure becomes a
    mismatching `error` record, so the run itself never aborts."""
    name, run, idx, cfg = task
    t0 = time.perf_counter()
    try:
        recs = run(idx, cfg, _worker_table)
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        recs = [VerificationRecord(idx, name, "error", "", False,
                                   detail=f"{type(exc).__name__}: {exc}")]
    if not cfg.timings:
        return recs
    ms = (time.perf_counter() - t0) * 1e3 / max(len(recs), 1)
    return [r._replace(elapsed_ms=ms) for r in recs]


def _run_batch(batch: list[tuple]) -> list[list[VerificationRecord]]:
    return [_run_task(t) for t in batch]


def _run_tasks(tasks: list[tuple], table: cn.HurwitzTable | None,
               workers: int) -> list[list[VerificationRecord]]:
    """The one place tasks are mapped, serially or over a process pool
    whose workers get the table from the initializer (any start method).
    Only a pool groups the index-sorted tasks into batches of whole
    indices, so the tasks of a prime share one worker and its per-prime
    tables: about four batches a worker, one index each under 8 workers'
    worth, so cheap primes share a round trip. It starts no more workers
    than there are batches, as a fork pool starts all of them at the
    first submit; a run of one index is a serial run."""
    if workers > 1:
        batches = [list(ts) for _, ts in groupby(tasks, key=itemgetter(2))]
        size = max(1, len(batches) // (4 * workers))
        batches = [sum(batches[k:k + size], [])
                   for k in range(0, len(batches), size)]
        if len(batches) > 1:
            # imported here: the pool machinery is a large import a serial
            # run never uses
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=min(workers, len(batches)),
                                     initializer=_init_worker,
                                     initargs=(table,)) as pool:
                return [g for gs in pool.map(_run_batch, batches) for g in gs]
    _init_worker(table)
    return _run_batch(tasks)


def _summarize(order: list[str], names: list[str], groups: list) -> None:
    """Record and mismatch counts, overall and by suite, and the reason for
    every `error` record, on stderr. Every suite in `order` gets a line, in
    that order, a suite with no prime of its class in range included."""
    count, fails = dict.fromkeys(order, 0), dict.fromkeys(order, 0)
    errors = []
    for name, recs in zip(names, groups):
        count[name] += len(recs)
        for r in recs:
            if not r.match:   # an error record never matches
                fails[name] += 1
                if r.lhs == "error":
                    errors.append((name, r))
    print(f"{sum(count.values())} records, {sum(fails.values())} mismatches",
          file=sys.stderr)
    for name in order:
        print(f"  {name}: {count[name]} records, {fails[name]} mismatches",
              file=sys.stderr)
    for _, r in sorted(errors, key=lambda e: order.index(e[0])):
        print(f"  error {r.p},{r.name}: {r.detail}", file=sys.stderr)


def _run_suites(suites: list[Suite], cfg: RunConfig) -> list[VerificationRecord]:
    """Run, emit and summarize the suites, prime-major, on one Hurwitz table."""
    bounds = [s.bound(cfg) for s in suites if s.bound is not None]
    table = cn.build_hurwitz_table(max(bounds)) if bounds else None
    tasks = [(s.name, s.run, idx, cfg) for s in suites for idx in s.indices(cfg)]
    tasks.sort(key=itemgetter(2))
    groups = _run_tasks(tasks, table, cfg.workers)
    release_tables()   # the report needs none of the last prime's tables
    records = merge_records(*groups)
    sys.stdout.write(records_to_csv(records))
    _summarize([s.name for s in suites], [t[0] for t in tasks], groups)
    return records


def cmd_verify(cfg: RunConfig) -> int:
    if not cfg.suites:
        raise SystemExit("verify: pick at least one --suite "
                         f"from {', '.join(SUITE_NAMES)} or 'all'")
    records = _run_suites([_SUITES[s] for s in cfg.suites], cfg)
    return 0 if all(r.match for r in records) else 1


# --- sweeps --------------------------------------------------------------------

def cmd_sweep(cfg: RunConfig, claim: str, p: int | None,
              bins: int | None) -> int:
    if claim == "angles":
        _need_prime(p, 3, "angles sweep needs an odd prime --p")
        bins = 20 if bins is None else bins
        if bins < 1:
            raise SystemExit(f"--bins must be >= 1, got {bins}")
        ctx = make_field_ctx(p)
        counts = km.angle_histogram(ctx, bins)
        edges, expected = km.semicircle_bins(bins, p - 1)
        lines = [SCHEMA_HEADER, "bin_lo,bin_hi,count,expected"]
        for k in range(bins):
            lines.append(f"{edges[k]:.6f},{edges[k + 1]:.6f},"
                         f"{counts[k]},{expected[k]:.3f}")
        sys.stdout.write("\n".join(lines) + "\n")
        chi = km.semicircle_chisq(counts)
        print(f"semicircle chi^2 = {chi:.2f} over {bins} bins", file=sys.stderr)
        return 0
    records = _run_suites([_SUITES[claim]], cfg)
    ok = all(r.match for r in records)
    ratios = [r for r in records if r.ratio is not None]
    if claim in idn.SWEEP_CLAIMS:
        worst = max((r.ratio for r in ratios), default=0.0)
        print(f"max normalized ratio {worst:.4f} "
              f"(threshold {cfg.threshold:g})", file=sys.stderr)
    elif len(ratios) >= 2:
        trend = pa.sweep_trend_ok(ratios)
        print(f"normalized ratio falls from first to last prime: {trend}",
              file=sys.stderr)
        ok = ok and trend
    return 0 if ok else 1


def cmd_gfun(p: int, family: str, lam: int, K: int) -> int:
    v = pa.ngn_evaluate(p, family, lam, K)
    if v is None:
        print(f"p={p} family={family} lambda={lam} K={K} value=0 "
              f"(to precision p^{K})")
    else:
        # a positive valuation leaves K - v known digits of the unit
        print(f"p={p} family={family} lambda={lam} K={K} "
              f"valuation={v[0]} unit={v[1]} mod p^{K - max(0, v[0])}")
    return 0


# --- argument plumbing -----------------------------------------------------------

def _need_prime(p: int | None, least: int, message: str) -> None:
    """Exit with `message` unless p is a prime >= least; a p past isprime's
    proven bound exits with one line too."""
    try:
        if p is not None and p >= least and isprime(p):
            return
    except ValueError as e:
        raise SystemExit(f"--p: {e}") from None
    raise SystemExit(message)


def _check_sweep_flags(ns: argparse.Namespace) -> None:
    """Exit with one line on an unknown claim or on a flag its sweep would
    ignore: angles reads only --p and --bins, which no other claim reads,
    and only the window claims compare their ratios to --threshold."""
    claim = ns.claim
    if claim == "angles":
        unread = ("pmin", "pmax", "workers", "timings", "threshold")
    elif claim in idn.SWEEP_CLAIMS:
        unread = ("p", "bins")
    elif claim in SWEEP_NAMES:
        unread = ("p", "bins", "threshold")
    else:
        raise SystemExit(f"unknown claim {claim!r}; pick from {SWEEP_NAMES}")
    given = [f"--{k}" for k in unread if getattr(ns, k) is not None]
    if given:
        raise SystemExit(f"the {claim} sweep does not read {', '.join(given)}")


def _build_config(ns: argparse.Namespace) -> RunConfig:
    """The RunConfig fields whose flags were given; RunConfig validates them."""
    given = {k: getattr(ns, k) for k in RunConfig._fields
             if getattr(ns, k, None) is not None}
    try:
        return RunConfig(**given)
    except ValueError as e:
        raise SystemExit(f"bad configuration: {e}")


@cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built by the first main call of a process, not at
    import, and reused by the later ones: parse_args keeps no state in it."""
    ap = argparse.ArgumentParser(
        prog="ntlab",
        description="Cross-checked verification lab for Kloosterman moments, "
                    "class-number windows, and p-adic hypergeometric identities.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--pmin", type=int)
        sp.add_argument("--pmax", type=int)
        sp.add_argument("--workers", type=int)
        # None when not given, as for every other flag
        sp.add_argument("--timings", action="store_true", default=None,
                        help="emit real elapsed_ms (breaks "
                        "byte-reproducibility)")

    vp = sub.add_parser("verify", help="run identity suites over a prime range")
    common(vp)
    vp.add_argument("--suite", action="extend", dest="suites",
                    type=lambda s: [name for name in s.split(",") if name],
                    help=f"one of {', '.join(SUITE_NAMES)}, or 'all'; repeatable")
    vp.add_argument("--nmax", type=int, help="odd-index cap for eichler/cohen")
    vp.add_argument("--seed", type=int)

    wp = sub.add_parser("sweep", help="normalized-ratio tables for the "
                                      "asymptotic claims")
    common(wp)
    wp.add_argument("--claim", required=True,
                    help=f"one of {', '.join(SWEEP_NAMES)}")
    wp.add_argument("--p", type=int, help="single prime (angles)")
    wp.add_argument("--bins", type=int, help="histogram bins (angles; "
                    "default 20)")
    wp.add_argument("--threshold", type=float)

    gp = sub.add_parser("gfun", help="evaluate one p-adic G-function value")
    gp.add_argument("--p", type=int, required=True)
    gp.add_argument("--family", choices=tuple(pa.NGN_FAMILIES), required=True)
    gp.add_argument("--lambda", dest="lam", type=int, required=True)
    gp.add_argument("--K", type=int, default=6)
    return ap


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    if ns.command == "verify":
        return cmd_verify(_build_config(ns))
    if ns.command == "sweep":
        _check_sweep_flags(ns)
        return cmd_sweep(_build_config(ns), ns.claim, ns.p, ns.bins)
    if ns.command == "gfun":
        _need_prime(ns.p, 5, f"--p {ns.p}: need a prime >= 5")
        if ns.K < 1:
            raise SystemExit(f"--K must be >= 1, got {ns.K}")
        return cmd_gfun(ns.p, ns.family, ns.lam, ns.K)
    raise SystemExit(2)


if __name__ == "__main__":
    sys.exit(main())
