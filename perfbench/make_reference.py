"""Regenerate the reference records under reference/ from the current
program. The references pin what a correct run prints; regenerate them only
for a deliberate change of the records' content.

Usage (from the repository root): python3 perfbench/make_reference.py
"""

from __future__ import annotations

import sys
import time

import run

# large-p's reference covers the whole pool every seed's window is drawn from
ARGV = {
    "large-p.csv": ["verify", "--suite", "moments,s4-triroute,cp-chain",
                    "--pmin", str(run.LARGE_P_POOL[0]),
                    "--pmax", str(run.LARGE_P_POOL[-1])],
    "small-p.csv": run.WORKLOADS["small-p"].argv(seed=0),
    "sweep-h.csv": run.WORKLOADS["sweep-h"].argv(seed=0),
}


def main() -> int:
    (run.HERE / "reference").mkdir(exist_ok=True)
    for fname, argv in ARGV.items():
        got = run.invoke(argv, "plain", time.monotonic() + 600)
        if got.result is None:
            raise SystemExit(f"{fname}: run failed")
        lines = ["p,name,lhs,rhs,match"]
        lines += [f"{p},{name},{lhs},{rhs},{match}"
                  for (p, name), (lhs, rhs, match) in sorted(got.records.items())]
        path = run.HERE / "reference" / fname
        path.write_text("\n".join(lines) + "\n")
        run.load_reference(path)
        print(f"{path.name}: {len(got.records)} records", file=sys.stderr)
    run.WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
