"""Rectangular tilings of tori, and the level placer that colors them.

A tiling partitions the torus vertex set into boxes whose sides span d
or d+1 vertices.  Since d is congruent to 2 mod 4, sides of d+1
vertices have even length (exactly d) and sides of d vertices have odd
length (d-1).  The level placer ``_place_level`` colors every region of
a chart's tiling on every orbit: an all-even region by a (shifted) core
coloring, a region with an odd side by the 2n-color boundary coloring.
Edges crossing between regions pick up the direction color c_i from the
boundary condition of both regions they touch, which is what makes the
union proper.  ``color_tiling`` is its one-level case (one orbit on the
identity chart, no shift) and ``layered.run_layered`` calls it per
level; both paths certify through ``grid._certify_level``.

On the shift action of Z^n such regions come from the orthogonal marker
regions of Gao, Jackson, Krohne and Seward; on a finite torus
``brick_tiling`` builds them directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .errors import InfeasibleError, InvalidInputError, VerificationError
from .grid import Box, Edge, Torus, Vertex, _box_index, _certify_level, unit_vector
from .lattice import Vector
from .rectcolor import _bc1, _bc2, _blank, _shifted_core, _store, check_shift, palette


# ---------------------------------------------------------------------------
# tilings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Tiling:
    """A partition of a torus vertex set into boxes.

    Region boxes live in [0, q)^n coordinates; their closed vertex sets
    (sizes + 1 vertices per side, reduced mod q) partition the torus.
    """

    torus: Torus
    regions: tuple[Box, ...]
    d: int


def segment_lengths(q: int, d: int) -> list[int]:
    """Deterministic composition of q into parts of d and d+1 vertices.

    Uses as few d+1 parts as possible, d parts first.  Raises when q is
    not representable (e.g. q < d, or q = 4 with d = 3).
    """
    if d < 2:
        raise InvalidInputError("marker distance d must be >= 2")
    y = q % d  # number of (d+1)-parts needed, modulo d
    while y * (d + 1) <= q:
        if (q - y * (d + 1)) % d == 0:
            x = (q - y * (d + 1)) // d
            return [d] * x + [d + 1] * y
        y += d
    raise InfeasibleError(f"modulus {q} is not a sum of parts {d} and {d + 1}")


def _segment_origins(parts: Sequence[int], offset: int, q: int) -> list[tuple[int, int]]:
    """(origin, vertex-count) pairs for a 1-d segmentation starting at offset."""
    out = []
    pos = offset % q
    for p in parts:
        out.append((pos, p))
        pos = (pos + p) % q
    return out


def brick_tiling(
    torus: Torus,
    d: int,
    offsets: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
) -> Tiling:
    """Axis-aligned brick tiling with per-slab offsets.

    The last axis is cut into slabs of d or d+1 vertices; each slab is
    tiled recursively in one dimension less, translated by that slab's
    offset (offsets cycle when there are more slabs than entries, and
    the list is rotated one step per slab for the recursive calls, which
    produces brick-wall adjacency).  ``seed`` draws offsets from a local
    RNG instead; with neither, everything is aligned at 0.
    """
    if offsets is not None and seed is not None:
        raise InvalidInputError("give offsets or seed, not both")
    if seed is not None:
        rng = random.Random(seed)
        offsets = [rng.randrange(0, max(torus.moduli)) for _ in range(8)]
    offs = tuple(offsets) if offsets else (0,)

    def build(moduli: tuple[int, ...], offs_now: tuple[int, ...], shift: int):
        q = moduli[-1]
        parts = segment_lengths(q, d)
        if len(moduli) == 1:
            return [
                ((o,), (count - 1,))
                for o, count in _segment_origins(parts, shift, q)
            ]
        regions = []
        for j, (o, count) in enumerate(_segment_origins(parts, shift, q)):
            sub_shift = offs_now[j % len(offs_now)]
            rotated = offs_now[1:] + offs_now[:1]
            for sub_origin, sub_sizes in build(moduli[:-1], rotated, sub_shift):
                regions.append((sub_origin + (o,), sub_sizes + (count - 1,)))
        return regions

    shift0 = offs[0] if torus.n == 1 else 0
    raw = build(torus.moduli, offs, shift0)
    boxes = tuple(sorted((Box(o, s) for o, s in raw), key=lambda b: b.origin))
    return Tiling(torus, boxes, d)


@dataclass(frozen=True)
class TilingReport:
    ok: bool
    problems: tuple[str, ...]


def validate_tiling(tiling: Tiling) -> TilingReport:
    """Check the partition, the d / d+1 vertex widths, and minimum width.

    Sides must span at least 2 vertices so that two parallel crossing
    edges can never share a vertex.
    """
    problems: list[str] = []
    torus = tiling.torus
    covered = bytearray(torus.vertex_count())
    points: list[Vertex] = []  # the torus vertices by index, listed at the first overlap
    for region in tiling.regions:
        for ax, a in enumerate(region.sizes, start=1):
            width = a + 1
            if width not in (tiling.d, tiling.d + 1):
                problems.append(
                    f"region at {region.origin} spans {width} vertices along "
                    f"axis {ax}; expected {tiling.d} or {tiling.d + 1}"
                )
            if width < 2:
                problems.append(f"region at {region.origin} is too thin on axis {ax}")
        indices = _box_index(region.origin, [a + 1 for a in region.sizes], torus.moduli)
        # a side of more vertices than its modulus wraps onto itself
        if any(a >= q for a, q in zip(region.sizes, torus.moduli)):
            problems.append(f"region at {region.origin} self-overlaps modulo the torus")
            indices = set(indices)
        for i in indices:
            if covered[i]:
                points = points or list(torus.vertices())
                problems.append(f"vertex {points[i]} covered by two regions")
            covered[i] = 1
    missing = covered.count(0)
    if missing:
        problems.append(f"{missing} torus vertices uncovered")
    return TilingReport(not problems, tuple(problems))


# ---------------------------------------------------------------------------
# the global colorer
# ---------------------------------------------------------------------------

def is_all_even(region: Box) -> bool:
    return all(a % 2 == 0 for a in region.sizes)


def first_odd_axis(region: Box) -> int:
    for ax, a in enumerate(region.sizes, start=1):
        if a % 2 == 1:
            return ax
    raise InfeasibleError(f"region {region.sizes} has no odd side")


@lru_cache(maxsize=None)
def local_edges(sizes: tuple[int, ...], plain: bool, shift: Vector) -> tuple[bytes, ...]:
    """A region's coloring as one block per axis, shared by every region of
    these sizes and core shift, which makes colorings local.

    A block runs over the region's frame, the region padded by one vertex
    below and above, since the edge bases lie in [-1, a_j] along every
    axis, in row-major order; ``region_frame`` places it.  A byte is the
    edge's slot in ``palette(n)`` plus 1, and 0 means no edge.
    """
    box = Box((0,) * len(sizes), sizes)
    frame = _blank(box)
    if plain:
        _bc1(frame, box.origin, sizes, tuple(range(1, box.n + 1)))
    elif is_all_even(box):
        check_shift(box, shift)
        _shifted_core(frame, box, shift)
    else:
        _bc2(frame, box.origin, sizes, first_odd_axis(box))
    return tuple(map(bytes, frame.blocks))


def region_frame(region: Box, moduli: Sequence[int]) -> list[int]:
    """The row-major torus index of every frame position of a region."""
    return _box_index([b - 1 for b in region.origin], [a + 2 for a in region.sizes], moduli)


def _plain(mode: str) -> bool:
    if mode not in ("plain", "core"):
        raise InvalidInputError(f"unknown tiling mode {mode!r}")
    return mode == "plain"


def _place_level(out: dict, tiling: Tiling, orbits: Iterable[tuple[Vertex, Sequence[Vertex]]],
                 keys: Sequence[Hashable], names: Sequence[Optional[str]], plain: bool,
                 shift: Callable[[Vertex, Sequence[Vertex], int], Vector]) -> None:
    """Color one level: every region of the chart ``tiling`` on every orbit.

    An orbit is a (rep, points) pair, ``points`` listing its vertex at
    every chart index in row-major order.  The region with index idx takes
    the ``local_edges`` blocks of its sizes and the core shift
    ``shift(rep, points, idx)``; ``region_frame`` sends each nonzero byte
    to a chart index, the block along chart axis j is keyed ``keys[j-1]``
    and a byte b names the color ``names[b]``.  Every write goes through
    ``rectcolor._store``, so an edge that two regions share must get the
    same color from both, or the run raises ColorConflictError.
    """
    if not plain and tiling.d % 4 != 2:
        raise InfeasibleError(f"core mode needs d congruent to 2 mod 4, got {tiling.d}")
    moduli = tiling.torus.moduli
    # (region index, shift) -> (frame, blocks), shared by every orbit
    placed: dict[tuple[int, Vector], tuple[list[int], tuple[bytes, ...]]] = {}
    for rep, points in orbits:
        for idx, region in enumerate(tiling.regions):
            t = shift(rep, points, idx)
            if (idx, t) not in placed:
                placed[(idx, t)] = (region_frame(region, moduli),
                                    local_edges(region.sizes, plain, t))
            frame, blocks = placed[(idx, t)]
            for key, block in zip(keys, blocks):
                for u, slot in zip(compress(frame, block), compress(block, block)):
                    _store(out, (points[u], key), names[slot])


def color_tiling(tiling: Tiling, mode: str = "plain") -> dict[Edge, str]:
    """Color every edge of the torus exactly once: the one-level case of
    ``layered.run_layered``, one orbit on the identity chart, cores
    unshifted.

    Within-region edges come from the region's own coloring; crossing
    edges are written from both sides as the direction color via the
    boundary condition, so the conflict check of ``rectcolor._store``
    doubles as a correctness check.  In core mode the extra color n+1
    stays inside the cores of all-even regions.
    """
    report = validate_tiling(tiling)
    if not report.ok:
        raise InvalidInputError("invalid tiling: " + "; ".join(report.problems))
    plain = _plain(mode)
    torus = tiling.torus
    n = torus.n
    zero = (0,) * n
    out: dict[Edge, str] = {}
    _place_level(out, tiling, [(zero, list(torus.vertices()))], range(1, n + 1),
                 [None] + palette(n), plain, lambda rep, points, idx: zero)
    expected = n * torus.vertex_count()
    if len(out) != expected:
        raise VerificationError(f"tiling coloring covered {len(out)} edges, expected {expected}")
    return out


# ---------------------------------------------------------------------------
# torus-wide verification
# ---------------------------------------------------------------------------

def verify_tiling_coloring(coloring: dict[Edge, str], tiling: Tiling, mode: str) -> TilingReport:
    """Full certification in one pass: totality, properness, palette,
    confinement, through the level certifier ``grid._certify_level``.

    Totality means exactly the n * |V| torus edges, keyed by their
    reduced base; the palette is the 2n+1 colors of ``palette(n)``.  In
    core mode the edges of the cores of the tiling's all-even regions
    are the only ones whose rule row admits the extra color n+1.
    """
    core_mode = not _plain(mode)
    torus = tiling.torus
    n = torus.n
    colors = palette(n)
    everywhere = b"\x01" * len(colors)
    # kind 0: anywhere, kind 1: on a core
    rules = (everywhere[:-1] + b"\x00" if core_mode else everywhere, everywhere)
    axes = range(1, n + 1)
    cores = [(axes, [torus.reduce(v) for v in region.core().vertices()])
             for region in tiling.regions if core_mode and is_all_even(region)]
    scan, problems = _certify_level(
        coloring.items(), torus.moduli, {ax: (unit_vector(n, ax), rules) for ax in axes},
        cores, colors)
    if scan.misplaced:
        problems.append(
            f"extra color escapes the cores at {scan.misplaced[0][0]} "
            f"({len(scan.misplaced)} edges in all)"
        )
    return TilingReport(not problems, tuple(problems))
