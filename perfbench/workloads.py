"""The benchmark's workloads.

A workload is a fixed list of operations; one pass over the list is a
round.  Every operation is one argument list for ``chromatile.cli.main``
with file names relative to the run's work directory, plus what the
checker needs to know about it and how many edges it certifies.  Only
``torus`` depends on the seed: it sets the per-slab brick offsets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("torus", "layered", "rect", "lowerbound")

# generating-set files the layered workload reads; listing one of v, -v
# is enough because every call passes --symmetrize
GENSETS = {
    "diag.txt": "n=2\n1,0\n0,1\n1,1\n",
    "cube.txt": "n=3\n1,0,0\n0,1,0\n0,0,1\n1,1,1\n",
    "pair.txt": "n=1\n1\n2\n",
}


@dataclass(frozen=True)
class Op:
    """One CLI call of a round."""

    label: str
    argv: tuple[str, ...]
    kind: str  # torus | svg | rect | layered | chi | matchings | labelings
    params: dict
    outputs: tuple[str, ...]  # files written, stdout captures included
    edges: int  # certified edges written; graph edges searched for lowerbound
    expect_fail: bool = False
    stdout: Optional[str] = None  # capture file for stdout


def _vec(v) -> str:
    return ",".join(str(x) for x in v)


def _prod(v) -> int:
    out = 1
    for x in v:
        out *= x
    return out


def _torus_op(label: str, moduli, d: int, offsets) -> Op:
    out = f"{label}.txt"
    argv = ("color-torus", "--moduli", _vec(moduli), "--d", str(d), "--mode", "core",
            "--offsets", _vec(offsets), "--out", out)
    params = {"moduli": tuple(moduli), "d": d, "offsets": tuple(offsets)}
    return Op(label, argv, "torus", params, (out,), len(moduli) * _prod(moduli))


def _rect_edges(sizes) -> int:
    # edges inside the box plus its adjacent edges: along axis i there are
    # (a_i + 2) * prod_{j != i} (a_j + 1) of them
    n = len(sizes)
    return sum(
        (sizes[i] + 2) * _prod(sizes[j] + 1 for j in range(n) if j != i) for i in range(n)
    )


def _rect_op(label: str, sizes, mode: str, origin=None, t=None, flag_form: bool = True,
             expect_fail: bool = False) -> Op:
    out = f"{label}.txt"
    argv = ["color-rect", "--sizes", _vec(sizes)]
    if origin is not None:
        argv.append(f"--origin={_vec(origin)}")
    argv += ["--mode", mode]
    if t is not None:
        argv += [f"--t={_vec(t)}"] if flag_form else ["--t", _vec(t)]
    argv += ["--out", out]
    params = {
        "sizes": tuple(sizes),
        "origin": tuple(origin) if origin is not None else (0,) * len(sizes),
        "mode": mode,
        "t": tuple(t) if t is not None else None,
    }
    return Op(label, tuple(argv), "rect", params, (out,), _rect_edges(sizes), expect_fail)


def _layered_op(label: str, genset: str, vectors, moduli, d_override=None) -> Op:
    out, cap = f"{label}.txt", f"{label}.stdout"
    argv = ["layered", "--genset", genset, "--symmetrize", "--moduli", _vec(moduli)]
    if d_override is not None:
        argv += ["--d-override", str(d_override)]
    argv += ["--out", out]
    params = {"vectors": tuple(vectors), "moduli": tuple(moduli)}
    pairs = len(vectors)
    return Op(label, tuple(argv), "layered", params, (out, cap), pairs * _prod(moduli),
              stdout=cap)


def _lowerbound_op(label: str, moduli, search: str) -> Op:
    cap = f"{label}.stdout"
    argv = ("lowerbound", "--moduli", _vec(moduli), "--search", search)
    edges = len(moduli) * _prod(moduli)  # standard generators: n edges per vertex
    return Op(label, argv, search, {"moduli": tuple(moduli)}, (cap,), edges, stdout=cap)


def torus_offsets(seed: int, q: int, count: int = 8) -> tuple[int, ...]:
    rng = random.Random(seed)
    return tuple(rng.randrange(q) for _ in range(count))


def build(workload: str, seed: int) -> tuple[dict[str, str], list[Op]]:
    """Input files and the operations of one round."""
    if workload == "torus":
        # 244 = 4*30 + 4*31 and 32 = 10 + 2*11: slabs of both widths, so
        # regions of every parity mix, the all-even ones carrying cores
        t2 = _torus_op("torus2", (244, 244), 30, torus_offsets(seed, 244))
        t3 = _torus_op("torus3", (32, 32, 32), 10, torus_offsets(seed + 1_000_003, 32))
        svg = Op("render2", ("render", "--in", "torus2.txt", "--out", "render2.svg"), "svg",
                 dict(t2.params), ("render2.svg",), 0)
        return {}, [t2, t3, svg]
    if workload == "layered":
        return dict(GENSETS), [
            _layered_op("layered2", "diag.txt", [(1, 0), (0, 1), (1, 1)], (222, 222), 18),
            _layered_op("layered3", "cube.txt",
                        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], (37, 37, 37), 18),
            # the set's own marker distance d = 3138, so q = 7 * 3138 + 3
            _layered_op("layered1", "pair.txt", [(1,), (2,)], (21969,)),
        ]
    if workload == "rect":
        return {}, [
            _rect_op("core30", (30, 30, 30), "core"),
            _rect_op("shift26", (26, 26, 26), "shifted", origin=(-7, 3, 11), t=(-10, 0, 8)),
            _rect_op("shift22", (22, 22, 22), "shifted", t=(4, -2, 0)),
            _rect_op("core10x4", (10, 10, 10, 10), "core"),
            _rect_op("bc1", (17, 20, 23), "bc1", origin=(5, -2, 0)),
            _rect_op("bc2", (20, 17, 22), "bc2"),
            # known fault: argparse takes "-2,0" for an option and exits 2
            _rect_op("shift10", (10, 10), "shifted", t=(-2, 0), flag_form=False,
                     expect_fail=True),
        ]
    if workload == "lowerbound":
        return {}, [
            _lowerbound_op("chi5x5", (5, 5), "chi"),
            _lowerbound_op("chi3x9", (3, 9), "chi"),
            _lowerbound_op("match31x31", (31, 31), "matchings"),
            _lowerbound_op("match11x3", (11, 11, 11), "matchings"),
            _lowerbound_op("label4x6", (4, 6), "labelings"),
        ]
    raise ValueError(f"unknown workload {workload!r}")
