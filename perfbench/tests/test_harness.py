"""Tests of the benchmark harness itself (no ntlab run needed).

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import tracer  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_wrapped_children():
    # outer runs 0..10; its two inner calls run 2..5 and 6..7
    tr = tracer.Tracer(clock=FakeClock([0.0, 2.0, 5.0, 6.0, 7.0, 10.0]))
    inner = tr.wrap("m.inner", lambda: None)

    def _outer():
        inner()
        inner()

    outer = tr.wrap("m.outer", _outer)
    outer()
    fns = tr.report()["functions"]
    assert fns["m.inner"]["calls"] == 2
    assert fns["m.inner"]["self_ms"] == 4000.0
    assert fns["m.outer"]["calls"] == 1
    assert fns["m.outer"]["self_ms"] == 6000.0


def test_gamma_stats_count_builds_and_repeats():
    g = tracer.GammaStats()
    a, b = object(), object()
    for ctx, x, t in ((a, 1, 0.5), (a, 2, 0.1), (a, 1, 0.1), (b, 1, 0.25)):
        g.observe((ctx, x), t)
    assert g.as_dict() == {"engine_builds": 2, "first_call_ms": 750.0,
                           "calls": 4, "repeats": 1}


def test_install_rebinds_every_import_and_reports_missing(tmp_path,
                                                          monkeypatch):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .ffield import make\n")
    (pkg / "ffield.py").write_text("def make(p):\n    return p\n")
    (pkg / "records.py").write_text(
        "from .ffield import make\n\ndef build(p):\n    return make(p)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import toypkg
    import toypkg.records

    tr = tracer.Tracer()
    missing = tracer.install(tr, "toypkg", ("ffield", "records", "gone"))
    assert missing == ["gone"]
    toypkg.make(7)
    toypkg.records.build(11)
    stats = tr.report()["functions"]
    assert stats["ffield.make"]["calls"] == 2
    assert stats["ffield.make"]["distinct"] == 2
    assert stats["records.build"]["calls"] == 1
    for name in [m for m in sys.modules if m.startswith("toypkg")]:
        del sys.modules[name]


def _rec(p, name, lhs, rhs, match):
    return {(p, name): (str(lhs), str(rhs), match)}


def test_failed_share_counts_error_missing_and_keeps_by_design():
    expected = {**_rec(11, "S1-closed", 11, 11, "true"),
                **_rec(11, "S4-closed-printed", -1221, -1441, "false"),
                **_rec(11, "S2-closed", 231, 231, "true"),
                **_rec(13, "s4-triroute", 9, 9, "true")}
    got = {**_rec(11, "S1-closed", 11, 11, "true"),
           # by-design mismatch, printed as in the reference
           **_rec(11, "S4-closed-printed", -1221, -1441, "false"),
           # S2-closed is missing; the s4-triroute task raised instead
           **_rec(13, "s4-triroute", 9, 9, "true"),
           **_rec(13, "moments", "error", "", "false")}
    attempted, failed = run.count_failures(got, expected)
    assert (attempted, failed) == (5, 2)

    # "fixing" the pinned constant is a failure, not an improvement
    fixed = {**got, **_rec(11, "S4-closed-printed", -1221, -1221, "true")}
    assert run.count_failures(fixed, expected) == (5, 3)


def test_references_load_with_only_by_design_mismatches():
    for wl in run.WORKLOADS.values():
        assert wl.expected(seed=0)   # load_reference raises on any other


def test_large_p_window_stays_inside_the_reference():
    wl = run.WORKLOADS["large-p"]
    pool = {p for p, _ in run.load_reference(
        run.HERE / "reference" / wl.reference)}
    for seed in range(40):
        lo, hi = wl.window(seed)
        assert lo in pool and hi in pool
        assert len(wl.expected(seed)) == 11 * run.LARGE_P_WINDOW


def test_layers_missing_from_the_program_read_as_absent_zeros():
    empty = {"functions": {}, "gamma_p": {"engine_builds": 0, "calls": 0,
                                          "first_call_ms": 0.0, "repeats": 0}}
    vals, absent = run.layer_values(empty)
    assert set(absent) == set(run.LAYER_STATS) | set(run.MOMENTS)
    assert not any(vals.values())
    measured_outside = {"cli.cpu_s", "cli.pool.cpu_util", "cli.pool.idle_s",
                        "trace.overhead_share"}
    assert set(vals) | measured_outside == set(run.PER_LAYER)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == run.PER_LAYER


def test_wall_and_setup_are_scaled_by_the_pace_job(monkeypatch):
    wl = run.WORKLOADS["sweep-h"]
    expected = wl.expected(seed=0)
    paces = iter([0.3, 1.2])
    walls = iter([2.0, 2.0])

    def fake_invoke(argv, mode, deadline):
        result = {"wall_s": next(walls), "peak_rss_mb": 50.0,
                  "start_method": "fork"}
        return run.Run(wl.exit_code, 0.5, result, expected)

    monkeypatch.setattr(run, "pace", lambda deadline: next(paces))
    monkeypatch.setattr(run, "invoke", fake_invoke)
    # start, budget, then (cycle start, cycle end, check) for two cycles
    clock = iter([0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.2, 1.2])
    monkeypatch.setattr(run.time, "monotonic", lambda: next(clock))
    out = run.measure("sweep-h", 0, 1.5, trace=False)
    assert out["failed"] == 0
    # runs paced at 0.3 s and 1.2 s read as 2 x 0.6/0.3 and 2 x 0.6/1.2
    assert out["details"]["series"]["wall_s"] == [4.0, 1.0]
    assert out["metrics"]["wall_s"]["value"] == 2.5
    assert out["metrics"]["setup_s"]["value"] == 0.625
    assert out["details"]["unscaled_median"] == {
        "wall_s": 2.0, "setup_s": 0.5, "pace_s": 0.75}
