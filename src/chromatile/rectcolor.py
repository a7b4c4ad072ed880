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

A coloring is a ``RectColoring``: one ``bytearray`` block per axis over
the box padded by one vertex, its frame, read as the mapping
``{(base, axis): color}``.  Builders write into the frame, and each path
is one run of bytes.  Before a run is written it is compared with the
bytes already there, and a nonzero byte that differs raises
ColorConflictError, so any internal disagreement between construction
stages raises instead of producing a silently improper coloring.  The
verifiers certify the blocks with whole-block ``bytes`` operations; a
plain dict given to them is first written into a frame.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Mapping
from itertools import combinations, compress, product, repeat
from typing import Iterator, Optional, Sequence

from .errors import ColorConflictError, InfeasibleError, InvalidInputError
from .grid import Box, Edge, Vertex, _outer_sum, _strides
from .lattice import Vector, fmt_vec


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
# the frame, and the construction internals: every builder writes into the
# frame it is given, one run of bytes per path
# ---------------------------------------------------------------------------

class RectColoring(Mapping):
    """A box's coloring held as its frame, the box padded by one vertex
    below: the vertices ``lows`` .. ``lows + radices - 1`` in row-major
    order, since the edge bases of the box and its adjacent edges run from
    origin - 1 to origin + sizes.  ``blocks[i][u]`` is the palette slot
    plus 1 of the edge along axis i + 1 based at frame vertex u, and 0
    means no edge.

    Read as the mapping ``{(base, axis): color}``, axis by axis and each
    axis in row-major order, and equal to any mapping with the same items.
    The builders write the blocks; the mapping itself has no writes.
    """

    __slots__ = ("lows", "radices", "strides", "ranges", "blocks", "_names")

    def __init__(self, lows: Sequence[int], radices: Sequence[int],
                 blocks: list[bytearray]) -> None:
        self.lows, self.radices, self.blocks = tuple(lows), tuple(radices), blocks
        self.strides = _strides(self.radices)
        self.ranges = [range(low, low + r) for low, r in zip(self.lows, self.radices)]
        self._names = [None] + palette(len(self.radices))

    def base(self, u: int) -> Vertex:
        """The vertex at row-major frame position u."""
        return tuple(low + u // st % r for low, st, r in zip(self.lows, self.strides, self.radices))

    def _at(self, key) -> Optional[tuple[bytearray, int]]:
        """The block and position of an edge key on the frame, or None off it."""
        try:
            base, axis = key
            if len(base) != len(self.radices) or not 1 <= axis <= len(self.blocks):
                return None
            u = 0
            for x, low, r, st in zip(base, self.lows, self.radices, self.strides):
                if not 0 <= x - low < r:
                    return None
                u += (x - low) * st
            return self.blocks[operator.index(axis) - 1], operator.index(u)
        except (TypeError, ValueError):
            return None

    def __getitem__(self, key) -> str:
        at = self._at(key)
        byte = at[0][at[1]] if at else 0
        if not byte:
            raise KeyError(key)
        return self._names[byte]

    def __len__(self) -> int:
        return sum(len(block) - block.count(0) for block in self.blocks)

    def __iter__(self) -> Iterator[Edge]:
        for axis, block in enumerate(self.blocks, start=1):
            yield from compress(zip(product(*self.ranges), repeat(axis)), block)

    def items(self) -> Iterator[tuple[Edge, str]]:
        colors = self._names.__getitem__
        for axis, block in enumerate(self.blocks, start=1):
            yield from compress(zip(zip(product(*self.ranges), repeat(axis)), map(colors, block)),
                                block)

    def colors(self) -> list[str]:
        """The colors in use, in palette order."""
        return [name for byte, name in enumerate(self._names)
                if byte and any(byte in block for block in self.blocks)]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RectColoring) and other.ranges == self.ranges:
            return other.blocks == self.blocks
        return super().__eq__(other)


def _blank(box: Box) -> RectColoring:
    """The box's frame with no edge written."""
    radices = [a + 2 for a in box.sizes]
    size = math.prod(radices)
    if size * box.n > sys.maxsize:
        raise InfeasibleError(
            f"a box of sizes {fmt_vec(box.sizes)} needs {size * box.n} bytes, "
            f"more than this platform can address")
    return RectColoring([b - 1 for b in box.origin], radices,
                        [bytearray(size) for _ in radices])


_NONZERO = bytes([0]) + b"\xff" * 255  # byte 0 to 0, every other byte to 0xFF


def _conflict(frame: RectColoring, i: int, start: int, prior: bytes, run: bytes) -> None:
    """Raise ColorConflictError at the first nonzero byte of ``prior``, the
    path along axis i + 1 from frame vertex ``start``, that ``run`` contradicts."""
    names = frame._names
    for h, (old, new) in enumerate(zip(prior, run)):
        if old and old != new:
            base = frame.base(start + h * frame.strides[i])
            raise ColorConflictError(f"edge {(base, i + 1)}: {names[old]} vs {names[new]}")


def _read_off(frame: RectColoring, origin: Vertex, sizes: tuple[int, ...],
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
            # a nonzero prior byte that the run changes is a conflict
            if prior != blank and (int.from_bytes(prior.translate(_NONZERO), "big")
                                   & int.from_bytes(run, "big")) != int.from_bytes(prior, "big"):
                _conflict(frame, i, start, prior, run)
            block[path] = run
        misses[i] = [j << 8 | (second if x == 0 or x == a else direction)
                     if x < a or a % 2 else 0 for x in range(a + 1)]


def _bc1(
    frame: RectColoring, origin: Vertex, sizes: tuple[int, ...], axes: tuple[int, ...]
) -> None:
    """Boundary-condition coloring with 2n+1 colors: the rule with
    r_1..r_m = ``axes`` and s_j = P(j+1), so r_m is peeled first."""
    _read_off(frame, origin, sizes, [(ax, P(j)) for j, ax in enumerate(axes, start=2)])


def _bc2(frame: RectColoring, origin: Vertex, sizes: tuple[int, ...], odd_axis: int) -> None:
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


def _shifted_core(frame: RectColoring, box: Box, t: Vector) -> None:
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

def color_bc1(box: Box) -> RectColoring:
    """Proper (2n+1)-coloring of the box and its adjacent edges with the
    boundary condition."""
    frame = _blank(box)
    _bc1(frame, box.origin, box.sizes, tuple(range(1, box.n + 1)))
    return frame


def color_bc2(box: Box, odd_axis: int) -> RectColoring:
    """Proper 2n-coloring with the boundary condition; color n+1 unused.

    Requires the side along ``odd_axis`` to be odd.
    """
    if not 1 <= odd_axis <= box.n:
        raise InvalidInputError(f"odd_axis {odd_axis} out of range")
    frame = _blank(box)
    _bc2(frame, box.origin, box.sizes, odd_axis)
    return frame


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


def color_core(box: Box) -> RectColoring:
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


def color_shifted_core(box: Box, t: Vector) -> RectColoring:
    """Boundary + t-shifted-core condition coloring of a side-d cube.

    Stage i uses slab extents 2k-1+t_i and 2k-1-t_i (both odd since t_i
    is even), which lands the final 2-cube on the core shifted by t.
    """
    t = tuple(t)
    check_shift(box, t)
    frame = _blank(box)
    _shifted_core(frame, box, t)
    return frame


# ---------------------------------------------------------------------------
# verifiers -- checks of the definitions, independent of the constructions
# above; one certifier reads the frame's blocks
# ---------------------------------------------------------------------------

_PRESENT = bytes([0]) + bytes([1]) * 255  # translates every nonzero byte to 1
_OFF_PALETTE = 255  # the byte a loaded color outside the palette gets
_SLAB = 1 << 22  # bytes per incident array that the properness check holds


def _load(coloring: Mapping[Edge, str], box: Box) -> tuple[RectColoring, bool]:
    """The coloring as the box's frame, and whether it holds a key off that
    frame.  A coloring built for the box is its own frame; any other
    mapping is written into a blank one, a color outside the palette as a
    byte that no slot has."""
    if isinstance(coloring, RectColoring) and coloring.ranges == [
            range(b - 1, b + a + 1) for b, a in zip(box.origin, box.sizes)]:
        return coloring, False
    frame = _blank(box)
    code = {color: slot for slot, color in enumerate(palette(box.n), start=1)}
    alien = False
    for key, color in coloring.items():
        at = frame._at(key)
        if at is None:
            alien = True
            continue
        try:
            at[0][at[1]] = code.get(color, _OFF_PALETTE)
        except TypeError:  # an unhashable color
            at[0][at[1]] = _OFF_PALETTE
    return frame, alien


def _edge_mask(sizes: Sequence[int], i: int) -> bytes:
    """1 at the frame vertices where an edge along axis i + 1 of the box
    or an adjacent edge is based, else 0: offsets 0 .. a_i + 1 along axis
    i + 1, and along every other axis 1 .. a_j + 1, the box itself."""
    mask = b"\x01"
    for j in reversed(range(len(sizes))):
        mask = mask * (sizes[j] + 2) if j == i else bytes(len(mask)) + mask * (sizes[j] + 1)
    return mask


def _slab(frame: RectColoring, i: int, x: int) -> bytes:
    """Block i's bytes at the frame vertices whose offset along axis i + 1 is x."""
    block, st = frame.blocks[i], frame.strides[i]
    period = st * frame.radices[i]
    return b"".join(block[h + x * st:h + x * st + st] for h in range(0, len(block), period))


def _proper(frame: RectColoring) -> bool:
    """Whether no frame vertex meets two edges of one color.

    At each vertex, axis i + 1 gives two incident arrays: the block itself,
    the edge that starts there, and the block moved by one stride, the edge
    that ends there, with the slab at offset 0 cleared where the move
    wraps.  Each array turns its zeros into a filler byte of its own, so
    two arrays agree at a vertex only where it sees one color twice.  Each
    pair is XORed as integers, and (x - 0x0101...) & ~x & 0x8080... finds
    a zero byte.  The arrays are taken in slabs of whole rows along axis
    1, so their integers stay small.
    """
    n, row, total = len(frame.blocks), frame.strides[0], len(frame.blocks[0])
    fillers = [bytes([2 * n + 2 + k]) + bytes(range(1, 256)) for k in range(2 * n)]
    step = max(1, _SLAB // row) * row
    for start in range(0, total, step):
        stop = min(start + step, total)
        size = stop - start
        ones = int.from_bytes(b"\x01" * size, "little")
        highs = ones << 7
        arrays = []
        for i, (block, st, r) in enumerate(zip(frame.blocks, frame.strides, frame.radices)):
            starts = block[start:stop]
            if i == 0:
                ends = block[start - st:stop - st] if start else bytes(st) + block[:stop - st]
            else:
                ends = bytearray(st) + starts[:size - st]
                for h in range(st):
                    ends[h::st * r] = bytes(len(range(h, size, st * r)))
            arrays += [starts.translate(fillers[2 * i]), ends.translate(fillers[2 * i + 1])]
        ints = [int.from_bytes(array, "little") for array in arrays]
        for a, b in combinations(ints, 2):
            x = a ^ b
            if (x - ones) & ~x & highs:
                return False
    return True


def _holds(frame: RectColoring, alien: bool, core: Optional[Box] = None) -> bool:
    """The rect certifier: the box's frame holds exactly the edges of the
    box and its adjacent edges, every one in the palette, adjacent edges
    along e_i colored c_i, properly, and, given a core, color n+1 only on
    the core's edges.  ``alien`` says that keys off the frame were dropped
    while loading it.  Raises InvalidInputError naming the first missing
    edge in (base, axis) order."""
    n = len(frame.blocks)
    sizes = [r - 2 for r in frame.radices]
    missing = []
    for i, block in enumerate(frame.blocks):
        mask, seen = _edge_mask(sizes, i), block.translate(_PRESENT)
        if seen != mask:
            holes = int.from_bytes(mask, "big") & ~int.from_bytes(seen, "big")
            alien = alien or not holes
            if holes:
                u = len(mask) - 1 - (holes.bit_length() - 1) // 8
                missing.append((frame.base(u), i + 1))
    if missing:
        raise InvalidInputError(
            f"coloring is not total on the box and its adjacent edges; "
            f"first missing: {min(missing)}"
        )
    palette_bytes = bytes(range(2 * n + 2))
    if alien or any(block.translate(None, palette_bytes) for block in frame.blocks):
        return False
    for i in range(n):
        ends = _slab(frame, i, 0) + _slab(frame, i, frame.radices[i] - 1)
        if ends.translate(None, bytes((0, i + 1))):
            return False
    if core is not None:
        extra = 2 * n + 1
        lows = [c - low for c, low in zip(core.origin, frame.lows)]
        on_core = sum(
            frame.blocks[i][u] == extra
            for i in range(n)
            for u in _outer_sum([[(low + x) * st for x in range(2 if j == i else 3)]
                                 for j, (low, st) in enumerate(zip(lows, frame.strides))])
        )
        if sum(block.count(extra) for block in frame.blocks) != on_core:
            return False
    return _proper(frame)


def verify_boundary_condition(coloring: Mapping[Edge, str], box: Box) -> bool:
    """Proper on box + adjacent edges; adjacent edges parallel to e_i are c_i.

    Keys that are not edges of the box or adjacent to it, and colors
    outside palette(n), also fail; a missing edge raises InvalidInputError.
    A coloring built for the box is certified from its blocks.
    """
    return _holds(*_load(coloring, box))


def verify_shifted_core(coloring: Mapping[Edge, str], box: Box, t: Vector) -> bool:
    """The boundary condition plus: color n+1 only on t-shifted-core edges.

    Raises when the box has an odd side (no core exists).
    """
    core = box.shifted_core(tuple(t))
    return _holds(*_load(coloring, box), core)
