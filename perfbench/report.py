"""Print every end-to-end metric, with its unit, and the failure share for
each workload, each measured for BENCHMARK.json's run_seconds.

Usage (from the repository root):

    python3 perfbench/report.py

For the layers that lead a workload's self time, see `top_self_ms` in the
details line of `python3 perfbench/run.py --workload NAME ... --trace 1`.
"""

from __future__ import annotations

import json
import sys

import run

SECONDS = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SEED = 0


def main() -> int:
    print(json.dumps(run.machine()))
    cols = [f"{k} [{u}]" for k, u in run.END_TO_END.items()]
    print(f"{'workload':<12}" + "".join(f"{c:>18}" for c in cols)
          + f"{'failed_share':>14}{'runs':>6}")
    for name in run.WORKLOADS:
        out = run.measure(name, SEED, SECONDS, trace=False)
        m, d = out["metrics"], out["details"]
        print(f"{name:<12}"
              + "".join(f"{m[k]['value']:>18.4f}" for k in run.END_TO_END)
              + f"{d['failed_share']:>14.4f}{d['runs']:>6}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
