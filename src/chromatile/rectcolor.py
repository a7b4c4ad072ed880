"""Proper edge colorings of n-dimensional rectangles.

Four constructions with increasingly strong guarantees, plus the
verifiers that certify them:

* ``color_bc1``: a (2n+1)-coloring satisfying the boundary condition
  (proper on the box and its adjacent edges; every adjacent edge
  parallel to e_i gets the direction color c_i).
* ``color_bc2``: a 2n-coloring with the boundary condition, available
  whenever some side is odd; it never touches the extra color n+1.
* ``color_core``: on a cube of side d = 4k+2, a (2n+1)-coloring with
  the boundary condition where color n+1 appears only on edges of the
  central 2 x ... x 2 core.
* ``color_shifted_core``: same, with the core moved by an even
  shift vector t, |t_i| <= 2k-2.

The first two read each edge's color off its coordinates by one rule,
the paper's peeling induction unrolled.  The axes r_1..r_m are peeled
from r_m down, and peeling r_j adds c_{r_j} and a second color s_j:
P(j+1), except that ``color_bc2`` peels its odd axis first with s =
c_odd.  With x an edge's base relative to the origin and a_i the sides,
an edge along r_j is c_{r_j} when adjacent (x_{r_j} = -1 or a_{r_j}),
s_j when x_{r_j} is odd, else free_{j-1}(x), the color its vertex
misses on r_1..r_{j-1}: free_0 = P(1), and free_i(x) is c_{r_i} when
0 < x_{r_i} < a_{r_i}, s_i when x_{r_i} = 0 or x_{r_i} = a_{r_i} is
odd, and free_{i-1}(x) when x_{r_i} = a_{r_i} is even.

All constructions are deterministic and translation-equivariant: every
coordinate is the box origin plus an offset that depends only on the
sizes (and shift), so boxes of one size get the same coloring up to
translation, which is what makes tiling-based colorings local.

A coloring is a plain dict ``{(base, axis): color}``.  Builders write
into a frame, one ``bytearray`` block per axis over the box padded by one
vertex, and each path is one run of bytes.  Before a run is written it is
compared with the bytes already there, and a nonzero byte that differs
raises ColorConflictError, so any internal disagreement between
construction stages raises instead of producing a silently improper
coloring.  The public builders turn the blocks into the dict at the end.
"""

from __future__ import annotations

import math
from itertools import compress, product, repeat
from typing import NamedTuple, Optional, Sequence

from .errors import ColorConflictError, InfeasibleError, InvalidInputError
from .grid import (
    Box, Edge, Vertex, _box_frame, _mark_core, _outer_sum, _scan_coloring, _strides,
    adjacent_edges, edges_in,
)
from .lattice import Vector


def C(i: int) -> str:
    """The direction color c_i."""
    return f"c{i}"


def P(j: int) -> str:
    """The plain color j."""
    return str(j)


def palette(n: int) -> list[str]:
    """The 2n+1 colors c_1..c_n, 1..n+1 in canonical order."""
    return [C(i) for i in range(1, n + 1)] + [P(j) for j in range(1, n + 2)]


def _store(colors: dict, edge, color: str) -> None:
    """Write an edge's color; a second write of the edge must agree."""
    prior = colors.setdefault(edge, color)
    if prior != color:
        raise ColorConflictError(f"edge {edge}: {prior} vs {color}")


# ---------------------------------------------------------------------------
# construction internals: every builder writes into the frame it is given,
# one run of bytes per path
# ---------------------------------------------------------------------------

class _Frame(NamedTuple):
    """A box padded by one vertex: the vertices lows .. lows + radices - 1
    in row-major order.  ``blocks[i][u]`` is the palette slot plus 1 of
    the edge along axis i + 1 based at frame vertex u, and 0 means no edge."""

    lows: tuple[int, ...]
    radices: tuple[int, ...]
    strides: list[int]
    blocks: list[bytearray]


def _blank(box: Box) -> _Frame:
    """The box's frame with no edge written; the edge bases of the box and
    its adjacent edges run from origin - 1 to origin + sizes."""
    radices = tuple(a + 2 for a in box.sizes)
    size = math.prod(radices)
    return _Frame(tuple(b - 1 for b in box.origin), radices, _strides(radices),
                  [bytearray(size) for _ in radices])


def _as_dict(frame: _Frame) -> dict[Edge, str]:
    """The frame's edges as a coloring, one C-level pass per axis."""
    names = [None] + palette(len(frame.radices))
    ranges = [range(low, low + r) for low, r in zip(frame.lows, frame.radices)]
    out: dict[Edge, str] = {}
    for axis, block in enumerate(frame.blocks, start=1):
        keys = zip(product(*ranges), repeat(axis))
        out.update(compress(zip(keys, map(names.__getitem__, block)), block))
    return out


def _conflict(frame: _Frame, i: int, start: int, prior: bytes, run: bytes) -> None:
    """Raise ColorConflictError at the first nonzero byte of ``prior``, the
    path along axis i + 1 from frame vertex ``start``, that ``run`` contradicts."""
    names = palette(len(frame.radices))
    for h, (old, new) in enumerate(zip(prior, run)):
        if old and old != new:
            u = start + h * frame.strides[i]
            base = tuple(low + u // st % r
                         for low, st, r in zip(frame.lows, frame.strides, frame.radices))
            raise ColorConflictError(f"edge {(base, i + 1)}: {names[old - 1]} vs {names[new - 1]}")


def _read_off(frame: _Frame, origin: Vertex, sizes: tuple[int, ...],
              chain: Sequence[tuple[int, str]]) -> None:
    """Color the box and its adjacent edges by the rule of the module
    docstring; ``chain`` lists (r_j, s_j) for j = 1..m.  Each path along
    r_j is one run c_{r_j}, free, s_j, free, ..., c_{r_j}, written into
    the frame as one extended slice.
    """
    code = {color: slot for slot, color in enumerate(palette(len(sizes)), start=1)}
    first = code[P(1)]
    offsets = [b - low for b, low in zip(origin, frame.lows)]
    # misses[k][x] = j << 8 | the code of the color that a vertex at x along
    # axis k + 1 = r_j misses on r_1..r_j; 0 where it misses free_{j-1}, and
    # everywhere before r_j is peeled.  So free_{j-1} is the largest entry.
    misses = [[0] * (a + 1) for a in sizes]
    for j, (ax, color) in enumerate(chain, start=1):
        i, a = ax - 1, sizes[ax - 1]
        direction, second = code[C(ax)], code[color]
        st = frame.strides[i]
        starts = _outer_sum([
            [(offsets[i] - 1) * st] if k == i else [(b + x) * stk for x in range(s + 1)]
            for k, (b, s, stk) in enumerate(zip(offsets, sizes, frame.strides))
        ])
        frees = [0]
        for k, row in enumerate(misses):
            frees = [max(f, m) for f in frees for m in ((0,) if k == i else row)]
        block, span, blank = frame.blocks[i], (a + 2) * st, bytes(a + 2)
        runs: dict[int, bytes] = {}
        for start, f in zip(starts, frees):
            run = runs.get(f)
            if run is None:
                free = f & 0xFF or first
                run = runs[f] = bytes(
                    (direction, *(free, second) * (a // 2), *(free,) * (a % 2), direction))
            path = slice(start, start + span, st)
            prior = block[path]
            if prior != blank and prior != run:
                _conflict(frame, i, start, prior, run)
            block[path] = run
        misses[i] = [j << 8 | (second if x == 0 or x == a else direction)
                     if x < a or a % 2 else 0 for x in range(a + 1)]


def _bc1(
    frame: _Frame, origin: Vertex, sizes: tuple[int, ...], axes: tuple[int, ...]
) -> None:
    """Boundary-condition coloring with 2n+1 colors: the rule with
    r_1..r_m = ``axes`` and s_j = P(j+1), so r_m is peeled first."""
    _read_off(frame, origin, sizes, [(ax, P(j)) for j, ax in enumerate(axes, start=2)])


def _bc2(frame: _Frame, origin: Vertex, sizes: tuple[int, ...], odd_axis: int) -> None:
    """Boundary-condition coloring with 2n colors; needs an odd side.

    The rule over the other axes in ascending order with s_j = P(j+1),
    then the odd axis with s_m = c_odd: its odd paths start and end
    with the free color, so color n+1 is never used.
    """
    if sizes[odd_axis - 1] % 2 == 0:
        raise InfeasibleError(f"axis {odd_axis} of {sizes} is not odd")
    rest = [ax for ax in range(1, len(sizes) + 1) if ax != odd_axis]
    chain = [(ax, P(j)) for j, ax in enumerate(rest, start=2)]
    _read_off(frame, origin, sizes, chain + [(odd_axis, C(odd_axis))])


def _shifted_core(frame: _Frame, box: Box, t: Vector) -> None:
    """Core construction on the box; assumes validated arguments.

    The 2n slabs and the final 2-cube are written into the one frame;
    the edges where two of them meet are written by both.
    """
    n = box.n
    k = (box.sizes[0] - 2) // 4
    origin = list(box.origin)
    current = list(box.sizes)
    stages = range(1, n + 1) if k else ()  # for d = 2 the core is the whole cube
    for stage_ax in stages:
        i = stage_ax - 1
        low_extent = 2 * k - 1 + t[i]
        high_extent = 2 * k - 1 - t[i]
        low_sizes = tuple(low_extent if j == i else a for j, a in enumerate(current))
        high_origin = tuple(
            origin[j] + (low_extent + 4 if j == i else 0) for j in range(n)
        )
        high_sizes = tuple(high_extent if j == i else a for j, a in enumerate(current))
        _bc2(frame, tuple(origin), low_sizes, stage_ax)
        _bc2(frame, high_origin, high_sizes, stage_ax)
        origin[i] += low_extent + 1
        current[i] = 2
    _bc1(frame, tuple(origin), tuple(current), tuple(range(1, n + 1)))


# ---------------------------------------------------------------------------
# public constructions
# ---------------------------------------------------------------------------

def color_bc1(box: Box) -> dict[Edge, str]:
    """Proper (2n+1)-coloring of the box and its adjacent edges with the
    boundary condition."""
    frame = _blank(box)
    _bc1(frame, box.origin, box.sizes, tuple(range(1, box.n + 1)))
    return _as_dict(frame)


def color_bc2(box: Box, odd_axis: int) -> dict[Edge, str]:
    """Proper 2n-coloring with the boundary condition; color n+1 unused.

    Requires the side along ``odd_axis`` to be odd.
    """
    if not 1 <= odd_axis <= box.n:
        raise InvalidInputError(f"odd_axis {odd_axis} out of range")
    frame = _blank(box)
    _bc2(frame, box.origin, box.sizes, odd_axis)
    return _as_dict(frame)


def _require_cube_4k2(box: Box) -> int:
    d = box.sizes[0]
    if any(a != d for a in box.sizes):
        raise InfeasibleError(f"core colorings need a cube, got {box.sizes}")
    if d % 4 != 2:
        raise InfeasibleError(f"cube side {d} is not congruent to 2 mod 4")
    return (d - 2) // 4


def check_shift(box: Box, t: Vector) -> int:
    """Validate an even core shift for a side-d cube; returns k."""
    k = _require_cube_4k2(box)
    if len(t) != box.n:
        raise InvalidInputError("shift dimension mismatch")
    bound = max(2 * k - 2, 0)
    for ti in t:
        if ti % 2:
            raise InfeasibleError(f"shift {t} has an odd coordinate")
        if abs(ti) > bound:
            raise InfeasibleError(f"shift {t} exceeds the admissible range +-{bound}")
    return k


def color_core(box: Box) -> dict[Edge, str]:
    """Boundary + core condition coloring of a cube of side d = 4k+2.

    The construction runs one stage per axis: stage i splits the
    current box along axis i into two odd slabs (colored by
    ``color_bc2``, which stays within the first 2n colors) around a
    middle slab of extent 2.  After n stages a 2 x ... x 2 cube remains
    at the center and is finished with ``color_bc1``, so the extra
    color n+1 can only appear on core edges.  For d = 2 the core is the
    whole cube and ``color_bc1`` already does everything.
    """
    return color_shifted_core(box, (0,) * box.n)


def color_shifted_core(box: Box, t: Vector) -> dict[Edge, str]:
    """Boundary + t-shifted-core condition coloring of a side-d cube.

    Stage i uses slab extents 2k-1+t_i and 2k-1-t_i (both odd since t_i
    is even), which lands the final 2-cube on the core shifted by t.
    """
    t = tuple(t)
    check_shift(box, t)
    frame = _blank(box)
    _shifted_core(frame, box, t)
    return _as_dict(frame)


# ---------------------------------------------------------------------------
# verifiers -- checks of the definitions, independent of the constructions
# above; each makes one pass through the grid kernel
# ---------------------------------------------------------------------------

def _box_edge_count(sizes: Sequence[int]) -> int:
    """Edges in a box plus its adjacent edges.

    Along axis i there are (a_i + 2) * prod_{j != i} (a_j + 1) of them.
    """
    vertices = 1
    for a in sizes:
        vertices *= a + 1
    return sum((a + 2) * (vertices // (a + 1)) for a in sizes)


def _boundary_holds(coloring: dict[Edge, str], box: Box, core: Optional[Box] = None) -> bool:
    """One kernel pass: proper, palette-only, no alien keys, adjacent edges
    along e_i colored c_i and, given a core, color n+1 only on its edges.
    Raises InvalidInputError when an edge of the box or an adjacent one
    is missing."""
    n = box.n
    everywhere = b"\x01" * (2 * n + 1)
    inside = everywhere if core is None else everywhere[:-1] + b"\x00"
    # kind 0: inside the box, kind 1: adjacent, kind 2: on the core
    rules = [(inside, bytes(slot == i for slot in range(2 * n + 1)), everywhere)
             for i in range(n)]
    index, classes = _box_frame(box, rules)
    if core is not None:
        lows = [c - b + 1 for c, b in zip(core.origin, box.origin)]
        _mark_core([kind for _, _, kind in classes.values()], lows, [a + 3 for a in box.sizes], 2)
    slot_of = {color: slot for slot, color in enumerate(palette(n))}.get
    scan = _scan_coloring(coloring.items(), index, classes, 2 * n + 1, slot_of)
    # valid keys are distinct edges of the set, so fewer means missing ones
    if scan.count < _box_edge_count(box.sizes):
        missing = next(e for e in edges_in(box) + adjacent_edges(box) if e not in coloring)
        raise InvalidInputError(
            f"coloring is not total on the box and its adjacent edges; "
            f"first missing: {missing}"
        )
    return not (scan.alien or scan.off_palette or scan.misplaced or scan.clashes)


def verify_boundary_condition(coloring: dict[Edge, str], box: Box) -> bool:
    """Proper on box + adjacent edges; adjacent edges parallel to e_i are c_i.

    One pass over the coloring.  Keys that are not edges of the box or
    adjacent to it, and colors outside palette(n), also fail; a missing
    edge raises InvalidInputError.
    """
    return _boundary_holds(coloring, box)


def verify_shifted_core(coloring: dict[Edge, str], box: Box, t: Vector) -> bool:
    """The boundary condition plus: color n+1 only on t-shifted-core edges.

    The same single kernel pass, with the core's edges the only ones
    inside the box whose rule row admits the extra color.  Raises when
    the box has an odd side (no core exists).
    """
    return _boundary_holds(coloring, box, box.shifted_core(tuple(t)))
