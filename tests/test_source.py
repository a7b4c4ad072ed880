"""Checks on the package source itself."""

import ast
import sys
from pathlib import Path

import chromatile


def test_no_assert_statements():
    """``python -O`` strips asserts, so every check must raise instead."""
    found = []
    for path in sorted(Path(chromatile.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not found


def test_imports_stay_light():
    """``src/`` imports only the standard library, networkx and itself.

    numpy is installed for the benchmark's checker only; importing it
    costs about 12 MiB of resident memory, more than the peak-RSS bound
    allows on the workloads that never need it.
    """
    allowed = set(sys.stdlib_module_names) | {"networkx", "chromatile"}
    found = []
    for path in sorted(Path(chromatile.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in allowed
            ]
    assert not found
