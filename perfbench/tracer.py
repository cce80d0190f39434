"""Outside-in layer trace for ntlab.

Wraps the public module-level functions of the ntlab modules from outside
the package and replaces every binding of each one, because `cli`,
`identities`, `padic` and `ntlab/__init__` import names such as `ap_table`
with `from ... import`. Spans stay in memory as per-function aggregates:
call count, self time (inclusive time minus the time of wrapped children),
the distinct first integer argument (p, ctx.p or a table bound) and
sum (p-1)^2 over calls. Gamma_p gets extra counters computed from its
arguments: engine builds, first-call time and the repeat share.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

MODULES = ("ffield", "ddreal", "kloosterman", "ecurve", "classnumber",
           "identities", "padic", "records")

# elementwise double-double kernels cost less per call than the wrapper
SKIP = frozenset({"ddreal.two_sum", "ddreal.quick_two_sum", "ddreal.split",
                  "ddreal.two_prod", "ddreal.dd_add", "ddreal.dd_neg",
                  "ddreal.dd_mul", "ddreal.dd_mul_float",
                  "ddreal.dd_from_mpf"})


def _first_int(args) -> int | None:
    if not args:
        return None
    a = args[0]
    if isinstance(a, int):
        return a
    p = getattr(a, "p", None)
    return p if isinstance(p, int) else None


class Stat:
    __slots__ = ("calls", "self_s", "keys", "terms")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.keys: set[int] = set()
        self.terms = 0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "self_ms": self.self_s * 1e3,
                "distinct": len(self.keys),
                "max_key": max(self.keys, default=0), "terms": self.terms}


class GammaStats:
    """Counters for gamma_p(ctx, x): one engine build per distinct ctx."""

    def __init__(self):
        self.seen: dict[object, set] = {}
        self.first_s = 0.0
        self.calls = 0
        self.repeats = 0

    def observe(self, args, self_s: float) -> None:
        ctx, x = args[0], args[1]
        self.calls += 1
        xs = self.seen.get(ctx)
        if xs is None:
            xs = self.seen[ctx] = set()
            self.first_s += self_s
        elif x in xs:
            self.repeats += 1
        xs.add(x)

    def as_dict(self) -> dict:
        return {"engine_builds": len(self.seen),
                "first_call_ms": self.first_s * 1e3,
                "calls": self.calls, "repeats": self.repeats}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.gamma = GammaStats()
        self._child = [0.0]   # time spent in wrapped children, per open span

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        observe = self.gamma.observe if name == "padic.gamma_p" else None
        clock = self.clock
        child = self._child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                own = dt - child.pop()
                child[-1] += dt
                stat.calls += 1
                stat.self_s += own
                key = _first_int(args)
                if key is not None:
                    stat.keys.add(key)
                    stat.terms += (key - 1) ** 2
                if observe is not None:
                    observe(args, own)

        return wrapper

    def report(self) -> dict:
        return {"functions": {k: s.as_dict() for k, s in self.stats.items()},
                "gamma_p": self.gamma.as_dict()}


def install(tracer: Tracer, package: str = "ntlab",
            modules=MODULES) -> list[str]:
    """Wrap the public functions of `package`'s modules in place; return the
    names of the modules that could not be imported."""
    wrappers = {}
    missing = []
    for short in modules:
        try:
            mod = importlib.import_module(f"{package}.{short}")
        except ImportError:
            missing.append(short)
            continue
        for attr, fn in vars(mod).items():
            name = f"{short}.{attr}"
            if (attr.startswith("_") or name in SKIP
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            wrappers[fn] = tracer.wrap(name, fn)
    for modname, mod in list(sys.modules.items()):
        if modname != package and not modname.startswith(package + "."):
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrappers:
                setattr(mod, attr, wrappers[val])
    return missing
