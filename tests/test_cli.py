import csv
import hashlib
import io
import multiprocessing
import os
import pickle
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from ntlab import classnumber as cn
from ntlab import identities as idn
from ntlab import cli
from ntlab.cli import SUITE_NAMES, SWEEP_NAMES, main
from ntlab.ffield import release_tables
from ntlab.primes import primerange
from ntlab.records import (SCHEMA_HEADER, VerificationRecord, merge_records,
                           records_to_csv)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _rows(out):
    """The report's records as dicts keyed by column name."""
    head, body = out.split("\n", 1)
    assert head == SCHEMA_HEADER
    return list(csv.DictReader(io.StringIO(body)))


def test_triroute_suite_passes(capsys):
    code, out, err = run(capsys, "verify", "--suite", "s4-triroute",
                         "--pmin", "7", "--pmax", "13")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == SCHEMA_HEADER
    assert any(",s4-triroute,-315,-315,true," in ln for ln in lines)
    assert any(",s4-triroute,-793,-793,true," in ln for ln in lines)
    assert "0 mismatches" in err


def test_moments_suite_reports_constant_gap(capsys):
    code, out, err = run(capsys, "verify", "--suite", "moments",
                         "--pmin", "7", "--pmax", "11")
    assert code == 1   # the as-recorded fourth-moment constant never matches
    assert "7,S4-closed-printed,517,538,false" in out
    assert "7,S4-closed-corrected,517,517,true" in out


def test_verify_output_is_deterministic(capsys):
    argv = ("verify", "--suite", "gk,curves", "--pmin", "7", "--pmax", "19")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    rows = _rows(out1)
    assert rows and all(r["elapsed_ms"] == "0.000" for r in rows)


def test_timings_flag_breaks_zeroing(capsys):
    # every record carries its share of its task's time, not only some
    for argv in (("verify", "--suite", "moments,curves,eichler", "--pmin", "7",
                  "--pmax", "13", "--nmax", "15"),
                 ("sweep", "--claim", "thm1.1", "--pmin", "7", "--pmax", "31")):
        _, out, _ = run(capsys, *argv, "--timings")
        rows = _rows(out)
        assert rows and all(float(r["elapsed_ms"]) > 0 for r in rows)


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_pool_matches_serial_under_every_start_method(capsys, method):
    argv = ("verify", "--suite", "counting,s4-triroute,eichler,schoof",
            "--pmin", "13", "--pmax", "29", "--nmax", "19")
    _, serial, _ = run(capsys, *argv, "--workers", "1")
    old = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(method, force=True)
    try:
        _, pooled, _ = run(capsys, *argv, "--workers", "2")
    finally:
        multiprocessing.set_start_method(old, force=True)
    assert pooled == serial
    assert ",error," not in serial


def test_error_reasons_reach_stderr(capsys, monkeypatch):
    def boom(ctx, table=None):
        raise ArithmeticError(f"boom at {ctx.p}")

    monkeypatch.setattr(idn, "counting_lemma_check", boom)
    monkeypatch.setattr(idn, "s4_direct", boom)
    # tasks run prime-major (s4-triroute at 7 and 11 before counting at 13);
    # the summary still lists suites in the order asked for
    code, out, err = run(capsys, "verify", "--suite", "counting,s4-triroute",
                         "--pmin", "7", "--pmax", "17")
    assert code == 1
    assert "13,counting,error,,false" in out
    assert err.splitlines()[1:] == [
        "  counting: 2 records, 2 mismatches",
        "  s4-triroute: 4 records, 4 mismatches",
        *(f"  error {p},counting: ArithmeticError: boom at {p}"
          for p in (13, 17)),
        *(f"  error {p},s4-triroute: ArithmeticError: boom at {p}"
          for p in (7, 11, 13, 17))]


def test_csv_carries_every_record_field(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cp-chain", "--pmin", "7",
                       "--pmax", "11")
    assert code == 0
    rows = _rows(out)
    assert {r["name"] for r in rows} >= {"ap-second-moment", "cp-count"}
    assert all(list(r) == list(VerificationRecord._fields)
               for r in rows)


def test_csv_detail_carries_the_prop64_reading(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "prop6.4", "--pmin", "7",
                       "--pmax", "13")
    assert code == 0
    rows = _rows(out)
    assert [(r["p"], r["rhs"]) for r in rows] == [("7", "see detail"),
                                                  ("13", "see detail")]
    assert all("corrected-const/theorem-twist=True" in r["detail"].split()
               for r in rows)


def test_repeated_suite_names_run_once(capsys):
    argv = ("verify", "--pmin", "7", "--pmax", "7")
    code, once, err = run(capsys, *argv, "--suite", "moments")
    assert "9 records" in err
    # an empty name in a comma list is dropped, not reported as unknown
    for extra in (("--suite", "moments,moments"),
                  ("--suite", "moments", "--suite", "moments"),
                  ("--suite", "moments,"), ("--suite", ",moments,,")):
        assert run(capsys, *argv, *extra) == (code, once, err), extra
    # a RunConfig built directly normalises its suites as the flags do
    assert cli.cmd_verify(cli.RunConfig(
        pmin=7, pmax=7, suites=("moments", "moments"))) == code
    assert capsys.readouterr() == (once, err)
    assert cli.RunConfig(suites=("all",)).suites == SUITE_NAMES


def _config_fields(kw):
    return [kw.get(k, v) for k, v in cli.RunConfig._field_defaults.items()]


def _unpickled(kw, protocol=None):
    # as a spawn worker unpickles its task, here of a tuple made past __new__
    return pickle.loads(pickle.dumps(
        tuple.__new__(cli.RunConfig, _config_fields(kw)), protocol))


_RUN_CONFIG_PATHS = {
    "constructor": lambda kw: cli.RunConfig(**kw),
    "_make": lambda kw: cli.RunConfig._make(_config_fields(kw)),
    "_replace": lambda kw: cli.RunConfig()._replace(**kw),
    "pickle": _unpickled,   # the default protocol, as a pool pickles
    **{f"pickle{n}": partial(_unpickled, protocol=n)
       for n in range(pickle.HIGHEST_PROTOCOL + 1)},
}


@pytest.mark.parametrize("path", list(_RUN_CONFIG_PATHS))
@pytest.mark.parametrize("kw", [{"pmin": 5}, {"pmin": 11, "pmax": 7},
                                {"nmax": 0}, {"workers": 0},
                                {"threshold": float("nan")},
                                {"suites": ("moments", "nonsense")}])
def test_every_way_of_making_a_run_config_validates_it(path, kw):
    with pytest.raises(ValueError):
        _RUN_CONFIG_PATHS[path](kw)


@pytest.mark.parametrize("path", list(_RUN_CONFIG_PATHS))
def test_every_way_of_making_a_run_config_normalises_its_suites(path):
    cfg = _RUN_CONFIG_PATHS[path]({"suites": ("gk", "moments", "gk")})
    assert type(cfg) is cli.RunConfig and cfg.suites == ("gk", "moments")
    assert _RUN_CONFIG_PATHS[path]({"suites": ["all"]}).suites == SUITE_NAMES


def test_every_run_config_field_is_a_flag_dest(monkeypatch):
    # _build_config reads the namespace by field name, so a field that no
    # flag fills would silently keep its default
    dests = set()

    def capture(ns):
        dests.update(vars(ns))
        raise SystemExit(0)

    monkeypatch.setattr(cli, "_build_config", capture)
    for argv in ("verify", "sweep --claim thm1.1"):
        with pytest.raises(SystemExit):
            main(argv.split())
    assert set(cli.RunConfig._fields) <= dests


@pytest.mark.parametrize("argv", [
    "verify --suite gk --pmin 7 --pmax 11 --K 6",
    "sweep --claim thm6.2 --pmin 7 --pmax 31 --K 6",
    "verify --suite moments --pmin 7 --pmax 11 --config run.cfg",
    "sweep --claim angles --p 101 --file out.csv",
    "verify --suite moments --pmin 7 --pmax 11 --out json",
    "sweep --claim angles --p 389 --out json",
])
def test_verify_and_sweep_have_no_precision_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2   # argparse's usage error
    flag = " ".join(argv.split()[-2:])
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_repeated_main_calls_print_the_same_bytes(capsys):
    # main parses with one argparse tree per process; no call may leave
    # state in it for the next, such as a flag a later call leaves out
    runs = [("verify", "--suite", "moments", "--pmin", "7", "--pmax", "13"),
            ("sweep", "--claim", "angles", "--p", "389")]
    first = [run(capsys, *argv) for argv in runs]
    run(capsys, "sweep", "--claim", "angles", "--p", "101", "--bins", "8")
    run(capsys, "verify", "--suite", "gk", "--pmin", "7", "--pmax", "11",
        "--seed", "3")
    assert [run(capsys, *argv) for argv in runs] == first
    assert cli._parser.cache_info().currsize == 1


def test_small_pmin_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "moments", "--pmin", "5", "--pmax", "7"])


def test_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense", "--pmin", "7", "--pmax", "11"])


def test_suite_list_of_empty_names_picks_none():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", ",", "--pmin", "7", "--pmax", "7"])
    assert exc.value.code.startswith("verify: pick at least one --suite")


def test_all_suites_registered():
    assert len(SUITE_NAMES) == 13
    assert set(SWEEP_NAMES) >= {"thm1.1", "prop4.6", "thm6.2", "thm6.3",
                                "angles"}


def test_sweep_claim(capsys):
    code, out, err = run(capsys, "sweep", "--claim", "prop4.6", "--pmin", "13",
                         "--pmax", "101")
    assert code == 0
    assert "max normalized ratio" in err
    assert all(int(ln.split(",")[0]) % 4 == 1 for ln in out.splitlines()[2:])


def test_summary_lists_every_requested_suite(capsys):
    # a suite with no prime of its class in range still gets its line, in
    # the order asked for: 11 is neither 1 mod 6, 1 mod 4 nor 7 mod 8
    _, out, err = run(capsys, "verify", "--suite", "moments,prop6.4,counting",
                      "--pmin", "8", "--pmax", "12")
    assert {ln.split(",")[0] for ln in out.splitlines()[2:]} == {"11"}
    assert err.splitlines()[:4] == ["9 records, 1 mismatches",
                                    "  moments: 9 records, 1 mismatches",
                                    "  prop6.4: 0 records, 0 mismatches",
                                    "  counting: 0 records, 0 mismatches"]
    code, out, err = run(capsys, "sweep", "--claim", "prop4.11", "--pmin", "8",
                         "--pmax", "12")
    assert code == 0 and len(out.splitlines()) == 2
    assert err.splitlines()[:2] == ["0 records, 0 mismatches",
                                    "  prop4.11: 0 records, 0 mismatches"]


# the suites whose builders read one class of primes, and raise on the rest
_CLASSED = {n: cli._SUITES[n] for n in (*SWEEP_NAMES, "counting", "prop6.4",
                                        "prop6.5") if n != "angles"}


@pytest.mark.parametrize("name", list(_CLASSED))
def test_indices_are_the_primes_the_builder_accepts(name, htable):
    # the registry names a claim's class once; its builder raises off it
    suite, cfg = _CLASSED[name], cli.RunConfig(pmin=7, pmax=400)
    accepted = []
    for p in primerange(7, 401):
        try:
            suite.run(p, cfg, htable)
        except ValueError:
            continue
        accepted.append(p)
    assert list(suite.indices(cfg)) == accepted


def test_sweep_threshold_can_fail(capsys):
    code, out, err = run(capsys, "sweep", "--claim", "thm1.1", "--pmin", "7",
                         "--pmax", "31", "--threshold", "0.001")
    assert code == 1
    assert "false" in out


_HURWITZ_RUNS = ([("verify", "--suite", s) for s in SUITE_NAMES]
                 + [("sweep", "--claim", c) for c in SWEEP_NAMES
                    if c != "angles"])


# pmax 211 is past CENSUS_CAP = 200, where schoof stops and its bound with it
@pytest.mark.parametrize("pmin,pmax", [(7, 61), (181, 211)])
@pytest.mark.parametrize("argv", _HURWITZ_RUNS, ids=" ".join)
def test_hurwitz_table_covers_every_read(capsys, monkeypatch, argv, pmin,
                                         pmax):
    # a read past Suite.bound raises, which the run reports as an error record
    real_build = cn.build_hurwitz_table
    argv = (*argv, "--pmin", str(pmin), "--pmax", str(pmax))
    _, tight, _ = run(capsys, *argv)
    assert ",error," not in tight
    suite = cli._SUITES[argv[2]]
    if suite.bound is None:
        return
    # the same bytes as on the 4 pmax table the windowed suites used to get
    monkeypatch.setattr(cn, "build_hurwitz_table",
                        lambda bound: real_build(max(bound, 4 * pmax)))
    _, wide, _ = run(capsys, *argv)
    assert wide == tight


def test_sweep_angles_histogram(capsys):
    code, out, err = run(capsys, "sweep", "--claim", "angles", "--p", "389",
                         "--bins", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "bin_lo,bin_hi,count,expected"
    counts = [int(ln.split(",")[2]) for ln in lines[2:]]
    assert sum(counts) == 388
    assert "chi^2" in err


def test_trend_sweep(capsys):
    code, out, err = run(capsys, "sweep", "--claim", "thm6.3", "--pmin", "7",
                         "--pmax", "53")
    assert code == 0
    assert "falls from first to last prime: True" in err


def test_trend_sweep_exits_1_when_the_ratio_rises(capsys):
    # thm6.2's ratio climbs from 0.0533 at p = 13 to 0.1745 at p = 19
    code, out, err = run(capsys, "sweep", "--claim", "thm6.2", "--pmin", "13",
                         "--pmax", "19")
    assert code == 1
    assert "falls from first to last prime: False" in err


@pytest.mark.parametrize("claim", ["thm6.2", "thm6.3"])
def test_trend_sweeps_reject_a_threshold(capsys, claim):
    # only the window claims compare their ratios to --threshold
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--claim", claim, "--pmin", "7", "--pmax", "31",
              "--threshold", "0.001"])
    assert exc.value.code == f"the {claim} sweep does not read --threshold"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flags", [
    ["--pmin", "7"], ["--pmax", "11"], ["--workers", "2"], ["--timings"],
    ["--threshold", "0.1"],
    ["--pmin", "7", "--pmax", "11", "--workers", "2", "--timings",
     "--threshold", "0.1"],
], ids=lambda flags: " ".join(flags))
def test_angles_sweep_rejects_the_flags_it_ignores(capsys, flags):
    # angles histograms one prime: no range, pool, timing or threshold
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--claim", "angles", "--p", "389", "--bins", "3",
              *flags])
    named = ", ".join(f for f in flags if f.startswith("--"))
    assert exc.value.code == f"the angles sweep does not read {named}"
    assert capsys.readouterr().out == ""


def test_sweep_workers_do_not_change_the_report(capsys):
    for claim in ("prop4.8", "thm6.3"):
        argv = ("sweep", "--claim", claim, "--pmin", "7", "--pmax", "60")
        code1, serial, _ = run(capsys, *argv)
        code2, pooled, _ = run(capsys, *argv, "--workers", "2")
        assert (code1, pooled) == (code2, serial)
        assert len(serial.splitlines()) > 4


def test_gfun_eval(capsys):
    code, out, _ = run(capsys, "gfun", "--p", "7", "--family", "3g3",
                       "--lambda", "3", "--K", "6")
    assert code == 0
    assert "valuation=-2" in out and "unit=85926" in out
    code, out, _ = run(capsys, "gfun", "--p", "7", "--family", "3g3",
                       "--lambda", "7")
    assert code == 0
    assert "value=0" in out


def test_gfun_builds_only_the_context_its_table_reads(capsys, monkeypatch):
    # 3G3's table premultiplies p^2, so gfun at the default K = 6 reads it
    # at K = 8, and builds no context at K = 6 beside it
    from ntlab import padic
    built, real_init = Counter(), padic.PadicCtx.__init__

    def counting(self, field, K):
        built[field.p, K] += 1
        real_init(self, field, K)

    monkeypatch.setattr(padic.PadicCtx, "__init__", counting)
    release_tables()
    code, out, _ = run(capsys, "gfun", "--p", "61", "--family", "3g3",
                       "--lambda", "3")
    assert code == 0 and "valuation=" in out
    assert built == Counter({(61, 8): 1})


def test_gfun_prints_the_digits_a_positive_valuation_leaves(capsys):
    # the unit is 1771560 mod 11^6 (read at K = 8), so K = 6 fixes it only
    # mod 11^5
    code, out, _ = run(capsys, "gfun", "--p", "11", "--family", "9g9",
                       "--lambda", "2", "--K", "6")
    assert code == 0
    assert out == ("p=11 family=9g9 lambda=2 K=6 valuation=1 unit=161050 "
                   "mod p^5\n")


def test_gfun_rejects_composite():
    with pytest.raises(SystemExit):
        main(["gfun", "--p", "9", "--family", "3g3", "--lambda", "2"])


@pytest.mark.parametrize("argv", [
    "sweep --claim angles --p 389 --bins 0",
    "sweep --claim angles --p 2",
    "gfun --p 7 --family 3g3 --lambda 3 --K 0",
    "gfun --p 3317044064679887385961981 --family 3g3 --lambda 2",
    "sweep --claim angles --p 3317044064679887385961981",
    "verify --suite eichler --nmax -3",
    "verify --suite moments --pmin 7 --pmax 11 --workers 0",
    "verify --suite moments --pmin 11 --pmax 7",
    "sweep --claim prop4.4 --pmin 7 --pmax 11",
    "sweep --claim thm1.1 --pmin 7 --pmax 12 --threshold nan",
    "sweep --claim thm1.1 --pmin 7 --pmax 12 --threshold -1",
    "sweep --claim thm1.1 --pmin 7 --pmax 20 --p 5",
    "sweep --claim thm1.1 --pmin 7 --pmax 20 --bins 3",
])
def test_bad_input_exits_with_one_line(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert isinstance(exc.value.code, str) and "\n" not in exc.value.code


@pytest.mark.parametrize("argv,message", [
    ("verify --suite thm6.2 --pmin 7 --pmax 13",
     "bad configuration: unknown suites: thm6.2"),
    ("sweep --claim moments --pmin 7 --pmax 13", "unknown claim 'moments'"),
])
def test_one_registry_keeps_suites_and_claims_apart(argv, message):
    # verify and sweep read one registry, yet each takes only its own names
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code.startswith(message)


def test_cohen_record_demands_an_exact_zero(capsys, monkeypatch, htable):
    # one more unit of 12 H*(99) moves c(99) by -99/12, a ratio c/l^(3/2)
    # of 0.0084: under the 0.01 the record used to allow, yet not zero
    hstar12 = list(htable.hstar12)
    hstar12[99] += 1
    bad = htable._replace(hstar12=tuple(hstar12))
    monkeypatch.setattr(cn, "build_hurwitz_table", lambda bound: bad)
    code, out, _ = run(capsys, "verify", "--suite", "cohen", "--nmax", "99")
    assert code == 1
    misses = [ln.split(",") for ln in out.splitlines() if ",false," in ln]
    assert [(m[0], m[2]) for m in misses] == [("99", "-33/4")]
    assert 0 < float(misses[0][5]) < 0.01
    assert out.count(",cohen,0,0,true,0,") == 49


def _per_term_records(nmax, table):
    """The eichler and cohen records as the per-n oracles give them."""
    recs = []
    for n in range(1, nmax + 1, 2):
        lhs, rhs = cn.eichler_lhs(n, table), cn.eichler_rhs(n)
        recs.append(VerificationRecord(n, "eichler", str(lhs), str(rhs),
                                       lhs == rhs))
        c = cn.cohen_coefficient(n, table)
        recs.append(VerificationRecord(n, "cohen", str(c), "0", c == 0,
                                       ratio=abs(float(c)) / n ** 1.5))
    return merge_records(recs)


@pytest.mark.parametrize("nmax", [1, 2, 3, 2001])
def test_eichler_cohen_table_reads_equal_the_per_term_oracles(capsys, nmax):
    _, out, _ = run(capsys, "verify", "--suite", "eichler,cohen",
                    "--nmax", str(nmax))
    want = _per_term_records(nmax, cn.build_hurwitz_table(nmax))
    assert out == records_to_csv(want)


def test_eichler_cohen_misses_equal_the_per_term_oracles(htable):
    # a table off at a few D: the records that miss must still read, in
    # lhs, rhs and ratio, what the per-term oracles give
    hstar12 = list(htable.hstar12)
    for D, delta in ((3, 7), (99, 1), (440, -5), (1000, 13)):
        hstar12[D] += delta
    bad = htable._replace(hstar12=tuple(hstar12))
    cfg = cli.RunConfig(nmax=1201)
    got = merge_records(cli._suite_eichler(0, cfg, bad),
                        cli._suite_cohen(0, cfg, bad))
    assert got == _per_term_records(1201, bad)
    assert sum(not r.match for r in got) > 100


def test_eichler_cohen_call_no_per_term_route(capsys, monkeypatch):
    def boom(*args):
        raise AssertionError("per-term route called")

    monkeypatch.setattr(cn, "hurwitz_hstar12", boom)
    monkeypatch.setattr(cn, "divisor_sums", boom)
    code, out, _ = run(capsys, "verify", "--suite", "eichler,cohen",
                       "--nmax", "199")
    assert code == 0 and ",error," not in out
    assert out.count(",true,") == 200


def test_eichler_and_cohen_share_one_pass(capsys, monkeypatch):
    # one divisor sieve and one theta_sums12 per odd n serve both suites
    calls = Counter()

    def counted(name):
        real = getattr(cn, name)

        def f(*args):
            calls[name] += 1
            return real(*args)
        return f

    for name in ("divisor_sum_table", "theta_sums12"):
        monkeypatch.setattr(cn, name, counted(name))
    release_tables()
    code, out, _ = run(capsys, "verify", "--suite", "eichler,cohen",
                       "--nmax", "301")
    assert code == 0 and out.count(",true,") == 302
    assert calls == {"divisor_sum_table": 1, "theta_sums12": 151}
    # keyed by equality: a table built again shares the pass, another nmax
    # builds its own
    calls.clear()
    cfg = cli.RunConfig(nmax=301)
    one, other = cn.build_hurwitz_table(301), cn.build_hurwitz_table(301)
    eichler = cli._suite_eichler(0, cfg, one)
    assert cli._suite_cohen(0, cfg, other) == cli._suite_cohen(0, cfg, one)
    assert calls == {"divisor_sum_table": 1, "theta_sums12": 151}
    assert cli._suite_eichler(0, cfg._replace(nmax=99), one) == eichler[:50]
    assert calls == {"divisor_sum_table": 2, "theta_sums12": 201}
    release_tables()


def test_eichler_cohen_runs_in_one_process_print_what_fresh_ones_do(capsys):
    # the shared pass is keyed on nmax and the table, so a second run with
    # another nmax reads its own
    runs = [("verify", "--suite", "eichler,cohen", "--nmax", n)
            for n in ("401", "201")]
    here = [run(capsys, *argv) for argv in runs]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv, got in zip(runs, here):
        fresh = subprocess.run([sys.executable, "-m", "ntlab.cli", *argv],
                               capture_output=True, text=True, env=env,
                               timeout=120)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_greene_suites_build_one_S_table_per_prime(capsys, monkeypatch):
    # each table build centers S(lam) once per lam, through _centered
    from ntlab import padic
    whats, real_centered = Counter(), padic._centered

    def centered(residue, mod, bound, what):
        whats[what] += 1
        return real_centered(residue, mod, bound, what)

    monkeypatch.setattr(padic, "_centered", centered)
    release_tables()
    code, _, _ = run(capsys, "verify", "--suite", "greene,prop6.6",
                     "--pmin", "7", "--pmax", "13")
    assert code == 0
    assert whats["S(1)"] == 3
    built = sum(n for w, n in whats.items() if w.startswith("S("))
    assert built == 6 + 10 + 12


def _v1_sha256(out):
    """sha256 of the report projected back to schema v1: the v1 schema
    line, the detail column dropped and each row re-joined from its fields
    unquoted, as v1 wrote them. The pins below were taken from v1 reports,
    so they hold only while the first seven columns are the same bytes."""
    head, body = out.split("\n", 1)
    assert head == SCHEMA_HEADER
    rows = list(csv.reader(io.StringIO(body)))
    assert rows[0][-1] == "detail"
    v1 = "".join(f"{line}\n" for line in
                 ["# ntlab-schema v1", *(",".join(r[:-1]) for r in rows)])
    return hashlib.sha256(v1.encode()).hexdigest()


# sha256 of the v1 form of the stdout below, taken before the p-adic sums
# went through teichmuller_dft and eichler/cohen through the table reads,
# and of its full v2 bytes, taken when the detail column was added. They
# change only with a deliberate output change, recorded in CHANGES.md.
PADIC_AND_EICHLER_SHA256 = (
    "89d5daed2135c715e3caeba65e6f66101d95c893dc4be16b4c01559ce555ff4e")
PADIC_AND_EICHLER_V2_SHA256 = (
    "2dc8a52bcea2388f54476331a8aaa37289ef0ea157e1b73f0276ed2b1bd9a653")


def test_padic_and_eichler_output_is_pinned(capsys):
    release_tables()
    _, out, _ = run(capsys, "verify", "--suite",
                    "gk,greene,prop6.4,prop6.5,prop6.6,eichler,cohen",
                    "--pmin", "7", "--pmax", "120", "--seed", "3")
    assert _v1_sha256(out) == PADIC_AND_EICHLER_SHA256
    assert hashlib.sha256(out.encode()).hexdigest() == (
        PADIC_AND_EICHLER_V2_SHA256)


# sha256 of the v1 form of each command's stdout, taken while the twist
# relations still summed every trace per lambda and the Hurwitz readers
# could fall back to the per-D enumeration; the verify pin was retaken when
# torsion-census's ratio became its distance from the exact window form.
# It changes only with a deliberate output change, recorded in CHANGES.md.
TABLE_READS_SHA256 = {
    ("verify", "--suite", "curves,schoof,counting,s4-triroute,cp-chain",
     "--pmin", "7", "--pmax", "400"):
    "66ab38957c43bc84c872db16793bc1e8081eeff0d6a86e0b675a4d84ff2d33a4",
    ("sweep", "--claim", "prop4.8", "--pmin", "100", "--pmax", "3000"):
    "a3c5763798e80fb9b1dbcfff06e73c778ef86d4ee7451392f196d6bb001eef7c",
}


@pytest.mark.parametrize("argv", list(TABLE_READS_SHA256), ids=" ".join)
def test_table_read_output_is_pinned(capsys, argv):
    release_tables()
    _, out, _ = run(capsys, *argv)
    assert _v1_sha256(out) == TABLE_READS_SHA256[argv]


# sha256 of the v1 form of the stdout of the moment and trace suites at the
# primes of the large-p benchmark window, taken while the Kloosterman table
# was still the product of two different inputs. It changes only with a
# deliberate output change, recorded in CHANGES.md.
LARGE_P_SHA256 = (
    "55fa59ee3eb4a3406a31d70eb47b22785cbd65fa076955d5a573f7e6769cb1bd")


def test_large_prime_moment_output_is_pinned(capsys):
    release_tables()
    _, out, _ = run(capsys, "verify", "--suite",
                    "moments,s4-triroute,cp-chain", "--pmin", "1511",
                    "--pmax", "1553")
    assert _v1_sha256(out) == LARGE_P_SHA256


# sha256 of the stdout of each window sweep, taken while the Hurwitz table
# was still Moebius-inverted from the primitive class numbers and the
# window sums were generators. prop4.8's pin covers its undivided 12 H* sum.
# They change only with a deliberate output change, recorded in CHANGES.md.
WINDOW_SWEEP_SHA256 = {
    ("sweep", "--claim", "thm1.1", "--pmin", "100", "--pmax", "8000"):
    "e021aa304640862690d94d3594d09c8ac35226c9c98944da56b6e4e254d1ee06",
    ("sweep", "--claim", "cor1.2", "--pmin", "7", "--pmax", "3000"):
    "9785fd421165a75100cfb881b13def212157f1ede83d76b56cc800a84ed671b5",
    ("sweep", "--claim", "prop4.6", "--pmin", "7", "--pmax", "3000"):
    "2debee4bc919f5336f70ecebfac385db73fe70d9e427874a257e0bff833cbab0",
    ("sweep", "--claim", "prop4.8", "--pmin", "7", "--pmax", "3000"):
    "d7b2f10cd6943790fe63eded35eef4042a940434142125dfcbb9fa17c642d088",
    ("sweep", "--claim", "prop4.9", "--pmin", "7", "--pmax", "3000"):
    "395da8d655e7c7c4e9fe62358b5350098002f0ba0464da609f72d71690e1c9a8",
    ("sweep", "--claim", "prop4.11", "--pmin", "7", "--pmax", "3000"):
    "772980f8202bf897de8572599abc38cbe8783db4d02b83d57a42e56da1bfb698",
}


@pytest.mark.parametrize("argv", list(WINDOW_SWEEP_SHA256), ids=" ".join)
def test_window_sweep_output_is_pinned(capsys, argv):
    _, out, _ = run(capsys, *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        WINDOW_SWEEP_SHA256[argv])


def test_curves_suite_reads_only_the_trace_table(capsys, monkeypatch):
    # ap_legendre sums one lambda in O(p); the suite needs none of it
    from ntlab import ecurve

    def boom(*args):
        raise AssertionError("per-lambda trace summed")

    monkeypatch.setattr(ecurve, "ap_legendre", boom)
    _, out, _ = run(capsys, "verify", "--suite", "curves", "--pmin", "7",
                    "--pmax", "200")
    assert ",error," not in out
    assert out.count(",twist-relations,0,0,true,") == 43


def test_schoof_suite_builds_one_census_per_prime(monkeypatch, htable):
    # count classes evaluated and convolutions, not calls: a memo hit costs
    # neither
    from ntlab import cli, ecurve
    classes, convolutions = Counter(), Counter()

    def counting(ctx, *args, real=ecurve._class_of):
        classes[ctx.p] += 1
        return real(ctx, *args)

    def convolving(u, v, real=ecurve.cyclic_convolve):
        convolutions[len(u)] += 1
        return real(u, v)

    monkeypatch.setattr(ecurve, "_class_of", counting)
    monkeypatch.setattr(ecurve, "cyclic_convolve", convolving)
    release_tables()
    for p in (53, 59):
        [rec] = cli._suite_schoof(p, cli.RunConfig(), htable)
        assert rec.match and rec.rhs > 10
    # only the CM classes, gcd(4, p - 1) + gcd(6, p - 1) of them, are
    # evaluated one by one; one convolution of p slots gives the rest
    assert classes == {53: 4 + 2, 59: 2 + 2}
    assert convolutions == {53: 1, 59: 1}


def test_moment_and_trace_suites_convolve_twice_per_prime(capsys, monkeypatch):
    # one Kloosterman table and one a_p table per prime serve all three
    # suites, each the product of one cyclic convolution of p slots with phi
    from ntlab import ecurve, ffield, kloosterman
    calls = Counter()
    for mod in (kloosterman, ecurve):
        def counting(u, v, real=mod.cyclic_convolve, name=mod.__name__):
            calls[name, len(u), v is u] += 1
            return real(u, v)
        monkeypatch.setattr(mod, "cyclic_convolve", counting)
    release_tables()
    run(capsys, "verify", "--suite", "moments,s4-triroute,cp-chain",
        "--pmin", "101", "--pmax", "107")
    assert calls == {key: 1 for p in (101, 103, 107)
                     for key in (("ntlab.kloosterman", p, False),
                                 ("ntlab.ecurve", p, False))}
    assert not ffield._SHARED   # the report needs no table; none is kept


def test_trace_suites_sum_the_squared_traces_once_per_prime(capsys,
                                                             monkeypatch):
    # both heads of route 2 and the C_p chain read one sum of a_p(gamma^2)^2;
    # each evaluation of it reads the a_p table once
    evaluations = Counter()

    def counting(ctx, real=idn.ap_table):
        evaluations[ctx.p] += 1
        return real(ctx)

    monkeypatch.setattr(idn, "ap_table", counting)
    release_tables()
    run(capsys, "verify", "--suite", "moments,s4-triroute,cp-chain",
        "--pmin", "101", "--pmax", "107")
    assert evaluations == {101: 1, 103: 1, 107: 1}


def test_padic_suites_compute_gk_I_once_per_prime(capsys, monkeypatch):
    # gk_I_integer reconstructs I through one _centered(..., "I") call, and
    # the checks of one prime share one context, so one Gamma_p engine at K
    from ntlab import padic
    engines, whats = Counter(), Counter()
    real_engine, real_centered = padic._GammaEngine, padic._centered

    def engine(p, K):
        engines[p, K] += 1
        return real_engine(p, K)

    def centered(residue, mod, bound, what):
        whats[what] += 1
        return real_centered(residue, mod, bound, what)

    monkeypatch.setattr(padic, "_GammaEngine", engine)
    monkeypatch.setattr(padic, "_centered", centered)
    release_tables()
    code, _, _ = run(capsys, "verify", "--suite",
                     "gk,greene,prop6.4,prop6.5,prop6.6",
                     "--pmin", "7", "--pmax", "13")
    assert code == 0
    assert whats["I"] == 3
    assert {p: engines[p, 6] for p in (7, 11, 13)} == {7: 1, 11: 1, 13: 1}


def test_pool_keeps_each_prime_in_one_worker(capsys, monkeypatch, tmp_path):
    # each worker logs its pid for every table product; under fork it
    # inherits the patched functions, so the log is written worker-side
    from ntlab import ecurve, kloosterman
    log = tmp_path / "log"
    # both tables are products of p slots, so len(u) is the prime
    for mod in (kloosterman, ecurve):
        def logged(u, v, real=mod.cyclic_convolve, name=mod.__name__):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {name} {len(u)}\n")
            return real(u, v)
        monkeypatch.setattr(mod, "cyclic_convolve", logged)
    old = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("fork", force=True)
    try:
        run(capsys, "verify", "--suite", "moments,s4-triroute,cp-chain",
            "--pmin", "101", "--pmax", "113", "--workers", "2")
    finally:
        multiprocessing.set_start_method(old, force=True)
    rows = [ln.split() for ln in log.read_text().splitlines()]
    pids = {}
    for pid, _, p in rows:
        pids.setdefault(int(p), set()).add(pid)
    assert sorted(pids) == [101, 103, 107, 109, 113]
    assert all(len(s) == 1 for s in pids.values()), pids
    # so each of a prime's two tables is built once, not once per worker
    assert Counter((name, int(p)) for _, name, p in rows) == {
        (name, p): 1 for p in pids
        for name in ("ntlab.kloosterman", "ntlab.ecurve")}


@pytest.mark.parametrize("pmax,want", [(7, []), (13, [3])])
def test_pool_starts_no_more_workers_than_indices(capsys, monkeypatch, pmax,
                                                  want):
    # a fork pool starts every worker at the first submit; this one records
    # max_workers and maps in-process, so no process is started. One prime
    # is a serial run, three get three workers, not 64
    import concurrent.futures
    started = []

    class Pool:
        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, batches):
            return map(fn, batches)

    argv = ("verify", "--suite", "moments,gk", "--pmin", "7", "--pmax",
            str(pmax))
    _, serial, _ = run(capsys, *argv)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    _, pooled, _ = run(capsys, *argv, "--workers", "64")
    assert pooled == serial and started == want


_PADIC_RUNS = {
    "verify all": SUITE_NAMES,
    # the sweeps' records at a prime next to the suites': they share the
    # suites' base context, however each spells make_padic_ctx's K
    "verify all, thm6.2 and thm6.3": (*SUITE_NAMES, "thm6.2", "thm6.3"),
    "thm6.2 and thm6.3": ("thm6.2", "thm6.3"),
}


@pytest.mark.parametrize("names", list(_PADIC_RUNS.values()),
                         ids=list(_PADIC_RUNS))
def test_padic_runs_build_one_base_context_per_prime(capsys, monkeypatch,
                                                     names):
    # one context at K = 6 per prime and nothing else: prop6.4 and prop6.5
    # read their nGn tables at the suites' K, so each prime builds one
    # Gamma_p engine, at K = 6
    from ntlab import padic
    built, real_init = Counter(), padic.PadicCtx.__init__
    engines, real_engine = Counter(), padic._GammaEngine

    def counting(self, field, K):
        built[field.p, K] += 1
        real_init(self, field, K)

    def engine(p, K):
        engines[p, K] += 1
        return real_engine(p, K)

    monkeypatch.setattr(padic.PadicCtx, "__init__", counting)
    monkeypatch.setattr(padic, "_GammaEngine", engine)
    release_tables()
    suites = [cli._SUITES[n] for n in names]
    cli._run_suites(suites, cli.RunConfig(pmin=7, pmax=70))
    capsys.readouterr()
    primes = [p for p in range(7, 71) if all(p % d for d in range(2, p))]
    want = Counter({(p, 6): 1 for p in primes})   # thm6.2 and 6.3 cover all
    assert built == want and engines == want
    assert sum(engines.values()) == 16
