"""Checks on the package source itself."""

import ast
import copy
import importlib
import importlib.util
import sys
from pathlib import Path

import chromatile
from chromatile.cli import main


def test_no_assert_statements():
    """``python -O`` strips asserts, so every check must raise instead."""
    found = []
    for path in sorted(Path(chromatile.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not found


def test_imports_stay_light():
    """``src/`` imports only the standard library and itself.

    numpy is installed for the benchmark's checker only; importing it
    costs about 12 MiB of resident memory, more than the peak-RSS bound
    allows on the workloads that never need it.
    """
    allowed = set(sys.stdlib_module_names) | {"chromatile"}
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


def test_no_dead_private_names():
    """Every module-level private name in ``src/`` (a function, class or
    constant) is read somewhere in ``src/`` outside its own definition,
    so a helper whose last caller went fails here."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(chromatile.__file__).parent.glob("*.py"))]
    reads = [
        (node.id if isinstance(node, ast.Name) else node.attr, id(node))
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    ]
    dead = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            inside = {id(inner) for inner in ast.walk(node)}
            dead += [
                name for name in names
                if name.startswith("_") and not name.startswith("__")
                and not any(read == name and at not in inside for read, at in reads)
            ]
    assert not dead


def test_shared_machinery_has_one_caller():
    """The store that every torus and layered write goes through, and the
    frame builder and kernel that certify those colorings, are each called
    from one module-level function or class in ``src/``: the level placer
    and the level certifier, which the torus and layered paths share."""
    callers: dict[str, set[str]] = {"_store": set(), "_torus_frame": set(),
                                    "_scan_coloring": set()}
    for path in sorted(Path(chromatile.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in callers:
                        callers[name].add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"_store": {"tiling._place_level"},
                       "_torus_frame": {"grid._certify_level"},
                       "_scan_coloring": {"grid._certify_level"}}


def _module_state() -> dict:
    """A copy of every module-level dict, list, set and bytearray in the package."""
    return {
        (module_name, name): copy.deepcopy(value)
        for module_name, module in sorted(sys.modules.items())
        if module_name.split(".")[0] == "chromatile"
        for name, value in vars(module).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set, bytearray))
    }


def test_no_module_state_survives_a_call(tmp_path, capsys):
    """Calls leave no module-level state behind.

    The benchmark empties only ``functools`` caches between calls, so a
    module-level cache would let later rounds run warm.
    """
    genset = tmp_path / "gen.txt"
    genset.write_text("n=2\n1,0\n0,1\n1,1\n", encoding="utf-8")
    before = _module_state()
    assert before  # the walk sees the package's tables
    assert main(["color-torus", "--moduli", "13,13", "--d", "6", "--mode", "core",
                 "--seed", "2", "--out", str(tmp_path / "torus.txt")]) == 0
    assert main(["layered", "--genset", str(genset), "--symmetrize", "--moduli", "37,37",
                 "--d-override", "18", "--out", str(tmp_path / "layered.txt")]) == 0
    assert main(["color-rect", "--sizes", "10,10", "--mode", "shifted", "--t", "2,-2",
                 "--out", str(tmp_path / "rect.txt")]) == 0
    assert main(["render", "--in", str(tmp_path / "torus.txt"),
                 "--out", str(tmp_path / "torus.svg")]) == 0
    assert _module_state() == before


def test_benchmark_spans_resolve():
    """The benchmark's tracer wraps functions at the names their callers
    look up, and a name it cannot find reads 0 without failing the run.

    The seven names listed here no longer exist; any other name that stops
    resolving, say because a function moved, fails here instead.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = {
        f"{module}.{attr}"
        for module, attr, _, _ in spans.WRAPS
        if not hasattr(importlib.import_module(module), attr)
    }
    assert missing == {
        "chromatile.cli.verify_proper",
        "chromatile.layered.color_bc2",
        "chromatile.layered.color_shifted_core",
        "chromatile.tiling.color_bc1",
        "chromatile.tiling.color_bc2",
        "chromatile.tiling.color_core",
        "chromatile.tiling.color_shifted_core",
    }
