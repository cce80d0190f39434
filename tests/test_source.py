"""Rules about the package source itself."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import ntlab

SRC = Path(ntlab.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so an invariant guarded by one goes unchecked
    found = []
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in ntlab: {', '.join(found)}"


def _ntlab_imports(tree: ast.Module) -> set[str]:
    """The ntlab modules a module imports, relative imports included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = (["ntlab"] * bool(node.level)
                    + [node.module] * bool(node.module))
            names = [".".join(base + [a.name]) for a in node.names]
        else:
            continue
        out |= {n.split(".")[1] for n in names if n.startswith("ntlab.")}
    return out


# sympy and mpmath are test-side oracles and numpy is not needed at all;
# loading any of them would cost the package more start-up time than most
# runs spend computing
HEAVY = {"sympy", "numpy", "mpmath"}


def _imports_of(modules: set[str]) -> list[str]:
    """Where the package imports any of these top-level modules."""
    found = []
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names
                      if n.split(".")[0] in modules]
    return found


def test_no_module_imports_sympy_numpy_or_mpmath():
    found = _imports_of(HEAVY)
    assert not found, f"imported in ntlab: {', '.join(found)}"


def test_no_module_imports_decimal_or_pydecimal():
    # the exact products need libmpdec: importing the C module _decimal
    # fails loudly without it, where decimal would fall back to the
    # pure-Python _pydecimal and run far slower without a word
    found = _imports_of({"decimal", "_pydecimal"})
    assert not found, f"imported in ntlab: {', '.join(found)}"


def test_no_module_imports_dataclasses():
    # the value types are NamedTuples: dataclasses loads inspect, ast, dis
    # and tokenize, and each decoration execs generated methods, about
    # 20 ms of every run's start-up
    found = _imports_of({"dataclasses"})
    assert not found, f"imported in ntlab: {', '.join(found)}"


def test_importing_the_cli_loads_only_the_stdlib_and_ntlab():
    # the difference of sys.modules, since site hooks load modules first
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import ntlab.cli; "
         "print('\\n'.join(sorted(set(sys.modules) - before)))"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert out.returncode == 0, out.stderr[-2000:]
    added = out.stdout.split()
    assert "ntlab.cli" in added
    foreign = [m for m in added if m.split(".")[0] != "ntlab"
               and m.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign, f"not stdlib: {', '.join(foreign)}"
    # a serial run never starts a pool, so its start-up should not pay for one
    pool = [m for m in added if m == "concurrent.futures.process"
            or m.split(".")[0] == "multiprocessing"]
    assert not pool, f"the cli imports the process pool: {', '.join(pool)}"
    slow = [m for m in added if m in ("dataclasses", "inspect")]
    assert not slow, f"the cli imports {', '.join(slow)}"


def test_routes_share_nothing_beyond_ffield():
    # the trace, direct and class-number routes are cross-checks of one
    # another only while none of them computes through another
    routes = {"ecurve", "kloosterman", "classnumber"}
    found = []
    for name in sorted(routes):
        path = SRC / f"{name}.py"
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{name} imports {m}"
                  for m in sorted(_ntlab_imports(tree) & (routes - {name}))]
    assert not found, "; ".join(found)


def test_public_callables_are_plain_functions_or_classes():
    # the layer tracer in perfbench/ wraps plain functions only, so a public
    # builder bound to any other callable (a bare functools.lru_cache, say)
    # would silently drop out of the per-layer figures
    found = []
    for info in pkgutil.iter_modules([str(SRC)]):
        mod = importlib.import_module(f"ntlab.{info.name}")
        found += [f"{info.name}.{name}" for name, obj in vars(mod).items()
                  if not name.startswith("_") and callable(obj)
                  and getattr(obj, "__module__", None) == mod.__name__
                  and not (inspect.isfunction(obj) or inspect.isclass(obj))]
    assert not found, f"not a plain function or class: {', '.join(found)}"


def test_inverses_are_taken_with_pow_minus_one():
    # pow(x, -1, p) raises on x = 0 mod p where Fermat's pow(x, p - 2, p)
    # silently returns 0, so a zero denominator cannot pass unnoticed
    found = []
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "pow" and len(node.args) == 3
                  and ast.unparse(node.args[1])
                  == f"{ast.unparse(node.args[2])} - 2"]
    assert not found, f"Fermat inverse in: {', '.join(found)}"


def test_gamma_engine_computes_without_floats():
    # the engine is exact integer arithmetic mod p^K; a float anywhere in it
    # (a log-based series stopping rule, a float literal, a true division)
    # would make its precision depend on rounding
    path = SRC / "padic.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    engine = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef)
                  and node.name == "_GammaEngine")
    found = [f"padic.py:{node.lineno}" for node in ast.walk(engine)
             if isinstance(node, ast.Constant) and isinstance(node.value, float)
             or isinstance(node, ast.Div)
             or isinstance(node, ast.Attribute) and node.attr == "log"
             or isinstance(node, ast.Name) and node.id == "float"]
    assert not found, f"float in _GammaEngine: {', '.join(found)}"


# callee -> the one (module, top-level function) allowed to call it, None
# for any function of that module, (None, None) for no package code at all:
# a suite reads a_p from ap_table and H from the table the cli builds once,
# and the per-value routes stay oracles; the literal Gamma_p product starts
# the engine's self-test and nothing else; the package reads Gamma_p
# through the row alone, so gamma_p is only the entry of tests and demos,
# each context builds its one engine, and p-adic contexts are built by
# _padic_ctx, the per_prime builder make_padic_ctx alone calls; curve
# classes are evaluated one by one only at the census's CM points; the
# literal O(p) isomorphism search serves l_set, the oracle, alone, so no
# suite tests curves pair by pair where l_set_sizes tallies the _iso_class
# key
ONLY_CALLER = {
    "_class_of": ("ecurve", "curve_census"),
    "gamma_p_direct": ("padic", "_GammaEngine"),
    "gamma_p": (None, None),
    "_GammaEngine": ("padic", "PadicCtx"),
    "PadicCtx": ("padic", "_padic_ctx"),
    "_padic_ctx": ("padic", "make_padic_ctx"),
    "build_hurwitz_table": ("cli", None),
    "ap_legendre": ("ecurve", "l_set"),
    "curves_isomorphic": ("ecurve", "l_set"),
    "class_number_h": ("classnumber", None),
    "hurwitz_hstar12": ("classnumber", None),
    "hurwitz_hfull": ("classnumber", None),
}


def test_tables_are_built_and_bypassed_only_where_allowed():
    found = []
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            fn = getattr(top, "name", None)
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                if callee not in ONLY_CALLER:
                    continue
                mod, allowed = ONLY_CALLER[callee]
                if path.stem != mod or allowed not in (None, fn):
                    found.append(f"{path.name}:{node.lineno} {fn} calls "
                                 f"{callee}")
    assert not found, "; ".join(found)


def test_only_gamma_run_touches_the_gamma_row():
    # every read of a context's Gamma_p row goes through _gamma_run, the one
    # door a tracer or a counter can wrap; PadicCtx.__init__ allocates it
    allowed = {("padic", "_gamma_run"), ("padic", "PadicCtx.__init__")}
    found = []
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        units = [(f"{top.name}.{getattr(item, 'name', None)}", item)
                 for top in tree.body if isinstance(top, ast.ClassDef)
                 for item in top.body]
        units += [(getattr(top, "name", None), top) for top in tree.body
                  if not isinstance(top, ast.ClassDef)]
        found += [f"{path.name}:{node.lineno} {name}" for name, unit in units
                  if (path.stem, name) not in allowed
                  for node in ast.walk(unit)
                  if isinstance(node, ast.Attribute) and node.attr == "_row"]
    assert not found, f"the Gamma_p row read in: {', '.join(found)}"


# the one reader that needs K digits of a unit behind p^-scale; gfun passes
# it the user's K and builds no context of its own
RAISE_K = {("padic", "ngn_evaluate")}


def test_only_gfun_asks_for_a_precision():
    # every suite and sweep reads one context per prime, make_padic_ctx(p),
    # at its default K; a call naming K anywhere else would give a prime a
    # second context, Gamma_p engine and row
    found = []
    for path in sorted(SRC.glob("**/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            fn = getattr(top, "name", None)
            if (path.stem, fn) in RAISE_K:
                continue
            for node in ast.walk(top):
                f = getattr(node, "func", None)
                if (isinstance(node, ast.Call) and "make_padic_ctx" in (
                        getattr(f, "id", None), getattr(f, "attr", None))
                        and (len(node.args) > 1
                             or any(k.arg == "K" for k in node.keywords))):
                    found.append(f"{path.name}:{node.lineno} {fn}")
    assert not found, f"make_padic_ctx called with a K: {', '.join(found)}"


def test_only_the_cli_sweeps_primes():
    # cli._run_suites is the one sweep driver: a claim names its class of
    # primes in the registry, so no other module walks a prime range
    found = []
    for path in sorted(SRC.glob("**/*.py")):
        if path.stem in ("primes", "cli"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.alias, ast.Attribute))
                  and "primerange" in (getattr(node, "id", None),
                                       getattr(node, "name", None),
                                       getattr(node, "attr", None))]
    assert not found, f"primerange used in: {', '.join(found)}"


def test_one_exact_convolution_primitive():
    # packing slots into one integer or one decimal, and the exact decimal
    # context, belong to cyclic_convolve alone: a second packed product
    # elsewhere would be a second convolution primitive to keep exact
    marks = ("int.from_bytes", ".to_bytes(", "Decimal(", "_EXACT")
    found = [f"{path.name}: {mark}" for path in sorted(SRC.glob("**/*.py"))
             if path.name != "ffield.py"
             for mark in marks if mark in path.read_text()]
    assert not found, "; ".join(found)
