"""Every script under demos/ runs to completion against the package, and
every command of the README's quick tour runs as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ntlab
from ntlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _quick_tour():
    """(command, the line after it) for each `ntlab` line of the README's
    quick-tour code block."""
    block = (ROOT / "README.md").read_text().split("## Quick tour", 1)[1]
    lines = block.split("```", 2)[1].splitlines()
    return [(ln, nxt) for ln, nxt in zip(lines, lines[1:] + [""])
            if ln.startswith("ntlab ")]


TOUR = _quick_tour()


def test_demos_are_found():
    # an empty glob would turn test_demo_runs into a silent skip
    assert DEMOS


def test_quick_tour_is_found():
    # likewise for test_quick_tour_command_runs, gfun line included
    assert any(ln.startswith("ntlab gfun ") for ln, _ in TOUR)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(ntlab.__file__).parents[1]))
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]


@pytest.mark.parametrize("line,after", TOUR, ids=[ln for ln, _ in TOUR])
def test_quick_tour_command_runs(capsys, line, after):
    # the shell's redirect or pipe tail is not ntlab's to parse; a flag the
    # cli no longer has exits 2 through argparse and fails here
    argv = shlex.split(re.split(r"[>|]", line, maxsplit=1)[0])[1:]
    assert main(argv) in (0, 1)
    out = capsys.readouterr().out
    if argv[0] == "gfun":
        # the tour shows the value the command prints
        assert after.startswith("# ") and out == after[2:] + "\n"
