"""Checks on the package source itself."""

import ast
from pathlib import Path

import chromatile


def test_no_assert_statements():
    """``python -O`` strips asserts, so every check must raise instead."""
    found = []
    for path in sorted(Path(chromatile.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not found
