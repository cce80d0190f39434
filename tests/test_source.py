"""Rules about the package source itself."""

import ast
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
