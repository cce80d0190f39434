"""One ntlab CLI run in a fresh interpreter.

Usage: python child.py RESULT.json {plain|trace} -- CLI-ARGS...

Stamps CLOCK_MONOTONIC right after `import ntlab.cli` (the parent stamped it
before starting this process, so the difference is the set-up time), runs
`ntlab.cli.main(CLI-ARGS)` with the CLI writing its report to this process's
stdout, and writes wall time, CPU time (this process and its reaped pool
workers), peak RSS and, in trace mode, the layer trace to RESULT.json.
"""

import json
import os
import resource
import sys
import time


def _cpu(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def _start_method() -> str:
    import multiprocessing
    return multiprocessing.get_start_method()


def main() -> int:
    out, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "trace"):
        raise SystemExit(__doc__)
    import ntlab.cli
    t_imported = time.monotonic()

    tracer = None
    if mode == "trace":
        import tracer as layer_trace  # this script's directory is sys.path[0]
        tracer = layer_trace.Tracer()
        layer_trace.install(tracer)

    cpu0 = (_cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN))
    t0 = time.perf_counter()
    rc = ntlab.cli.main(argv)
    wall = time.perf_counter() - t0
    sys.stdout.flush()
    cpu = (_cpu(resource.RUSAGE_SELF) - cpu0[0]
           + _cpu(resource.RUSAGE_CHILDREN) - cpu0[1])
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    result = {
        "t_imported": t_imported,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_kb / 1024.0,
        "cli_file": ntlab.cli.__file__,
        "start_method": _start_method(),
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    with open(out, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    os._exit(code)   # interpreter teardown is part of no metric; skip it
