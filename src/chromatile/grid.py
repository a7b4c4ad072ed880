"""Boxes, grid edges, tori and Schreier graphs of Z^n actions.

Axes are 1-based throughout, matching the color names c1..cn used by
the rectangle colorers.  A grid edge is the plain key (base, axis): the
undirected edge {base, base + e_axis}, so each edge has exactly one key.
Boxes, edges, tori and graph views are immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import InvalidInputError
from .lattice import GeneratorSet, Vector

Vertex = tuple[int, ...]


# the grid edge {base, base + e_axis}, axis 1-based
Edge = tuple[Vertex, int]


def unit_vector(n: int, axis: int) -> Vector:
    return tuple(1 if i == axis - 1 else 0 for i in range(n))


@dataclass(frozen=True)
class Box:
    """The n-dimensional rectangle [b_1, b_1+a_1] x ... x [b_n, b_n+a_n].

    ``sizes`` are the side lengths a_i, so side i spans a_i + 1 vertices.
    """

    origin: Vertex
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.origin) != len(self.sizes):
            raise InvalidInputError("origin/sizes dimension mismatch")
        if not self.sizes:
            raise InvalidInputError("box must have dimension >= 1")
        if any(a < 1 for a in self.sizes):
            raise InvalidInputError(f"box sides must be >= 1, got {self.sizes}")

    @property
    def n(self) -> int:
        return len(self.sizes)

    def vertices(self) -> Iterator[Vertex]:
        ranges = [range(b, b + a + 1) for b, a in zip(self.origin, self.sizes)]
        return product(*ranges)

    def core(self) -> "Box":
        """Central 2 x ... x 2 sub-box; requires all sides even and >= 2."""
        return self.shifted_core((0,) * self.n)

    def shifted_core(self, t: Vector) -> "Box":
        """The core translated by t, staying inside the box.

        Requires all sides even and -a_i/2 + 1 <= t_i <= a_i/2 - 1.
        """
        if len(t) != self.n:
            raise InvalidInputError("shift dimension mismatch")
        if any(a % 2 or a < 2 for a in self.sizes):
            raise InvalidInputError(f"core needs even sides >= 2, got {self.sizes}")
        for a, ti in zip(self.sizes, t):
            if not (-a // 2 + 1 <= ti <= a // 2 - 1):
                raise InvalidInputError(f"shift {t} not within range for sides {self.sizes}")
        origin = tuple(
            b + a // 2 - 1 + ti for b, a, ti in zip(self.origin, self.sizes, t)
        )
        return Box(origin, (2,) * self.n)


# ---------------------------------------------------------------------------
# edge enumeration for boxes
# ---------------------------------------------------------------------------

def edges_in(box: Box) -> list[Edge]:
    """All edges with both endpoints in the box, in deterministic order.

    The count is sum_i a_i * prod_{j != i} (a_j + 1).
    """
    edges = []
    for ax in range(1, box.n + 1):
        ranges = [
            range(b, b + a) if i == ax - 1 else range(b, b + a + 1)
            for i, (b, a) in enumerate(zip(box.origin, box.sizes))
        ]
        edges += [(base, ax) for base in product(*ranges)]
    edges.sort()
    return edges


def adjacent_edges(box: Box) -> list[Edge]:
    """Edges with exactly one endpoint in the box.

    These are precisely the edges outside the box that share a vertex
    with an edge of the box; per axis i there are 2 * prod_{j != i}
    (a_j + 1) of them.
    """
    edges = []
    for i, (b, a) in enumerate(zip(box.origin, box.sizes)):
        ranges = [range(c, c + s + 1) for c, s in zip(box.origin, box.sizes)]
        for end in (b - 1, b + a):
            ranges[i] = (end,)
            edges += [(base, i + 1) for base in product(*ranges)]
    edges.sort()
    return edges


# ---------------------------------------------------------------------------
# tori and Schreier graph views
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Torus:
    """Z^n reduced componentwise modulo the given moduli."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.moduli or any(q < 1 for q in self.moduli):
            raise InvalidInputError(f"torus moduli must be >= 1, got {self.moduli}")

    @property
    def n(self) -> int:
        return len(self.moduli)

    def reduce(self, v: Vertex) -> Vertex:
        return tuple(x % q for x, q in zip(v, self.moduli))

    def add(self, v: Vertex, w: Vector) -> Vertex:
        return tuple((x + y) % q for x, y, q in zip(v, w, self.moduli))

    def vertices(self) -> Iterator[Vertex]:
        return product(*[range(q) for q in self.moduli])

    def vertex_count(self) -> int:
        out = 1
        for q in self.moduli:
            out *= q
        return out


@dataclass(frozen=True)
class SchreierGraphView:
    """The graph on a torus with edges {x, u.x} for generators u.

    The construction asserts that all generators act as distinct nonzero
    translations, which makes the graph regular of degree |S|.  Tiny
    moduli that would create self-loops or doubled edges are rejected
    outright rather than silently merged.
    """

    domain: Torus
    generators: GeneratorSet

    def __post_init__(self) -> None:
        if self.domain.n != self.generators.dimension:
            raise InvalidInputError("generator/torus dimension mismatch")
        seen: dict[Vertex, Vector] = {}
        for u in self.generators:
            image = self.domain.reduce(u)
            if not any(image):
                raise InvalidInputError(
                    f"generator {u} acts trivially modulo {self.domain.moduli}"
                )
            if image in seen:
                raise InvalidInputError(
                    f"generators {seen[image]} and {u} coincide modulo "
                    f"{self.domain.moduli}; the Schreier graph would not be "
                    f"{len(self.generators)}-regular"
                )
            seen[image] = u


# ---------------------------------------------------------------------------
# one-pass certification kernel
#
# ``_certify_level`` checks a torus or layered coloring with
# ``_scan_coloring``: one pass over its items that turns both endpoints
# of every key into a mixed-radix vertex index and marks (vertex, color
# slot) in a bytearray, so a slot marked twice is a vertex that sees one
# color twice.  A verifier describes its edge set by a *frame*, the
# row-major index of every vertex of a box, and one *edge class* per
# direction: a key (base, cls) names an edge when base is a frame vertex
# and ``classes[cls]`` gives it a second endpoint.  The core and
# level-palette conditions are data in the frame too: each class
# holds a few rule rows and a kind byte per frame vertex, which the
# verifier writes before the pass.
# ---------------------------------------------------------------------------

# (high, rules, kind): high[u] is the index of the second endpoint of
# the class's edge based at vertex u, or negative when the edge set has
# no such edge; rules[kind[u]][slot] says whether that edge may carry slot
_EdgeClass = tuple[list[int], tuple[bytes, ...], bytearray]


class _Scan(NamedTuple):
    """What one pass over a coloring found."""

    count: int  # keys naming an edge of the set; distinct, being dict keys
    alien: list  # keys naming none
    off_palette: list  # (key, color) pairs whose color has no slot
    misplaced: list  # (key, color) pairs whose slot the edge's rule row forbids
    clashes: list  # (vertex index, slot) pairs marked a second time
    seen: bytearray  # seen[vertex * slot_count + slot]

    def slots_used(self, slot_count: int) -> int:
        return sum(1 for slot in range(slot_count) if 1 in self.seen[slot::slot_count])


def _frame_index(lows: Sequence[int], radices: Sequence[int]) -> dict[Vertex, int]:
    """Row-major index of every vertex of the box lows .. lows + radices - 1."""
    ranges = [range(low, low + r) for low, r in zip(lows, radices)]
    return {v: i for i, v in enumerate(product(*ranges))}


def _strides(radices: Sequence[int]) -> list[int]:
    """Row-major place values: the last coordinate varies fastest."""
    out, place = [], 1
    for r in reversed(radices):
        out.append(place)
        place *= r
    return out[::-1]


def _outer_sum(columns: Sequence[Sequence[int]]) -> list[int]:
    """The sum over i of columns[i][x_i], for every frame offset x in
    row-major order."""
    out = [0]
    for column in columns:
        out = [a + b for a in out for b in column]
    return out


def _box_index(
    lows: Sequence[int], radices: Sequence[int], moduli: Sequence[int]
) -> list[int]:
    """Row-major torus index of every vertex of the box lows .. lows +
    radices - 1, in row-major box order, coordinates reduced modulo the
    torus."""
    return _outer_sum([
        [(low + x) % q * st for x in range(r)]
        for low, r, q, st in zip(lows, radices, moduli, _strides(moduli))
    ])


def _torus_frame(
    moduli: Sequence[int], steps: dict[Hashable, tuple[Vector, tuple[bytes, ...]]]
) -> tuple[dict[Vertex, int], dict[Hashable, _EdgeClass]]:
    """Frame and edge classes of a torus, keyed by reduced base vertex.

    ``steps`` maps each class key (an axis, or the step itself) to its
    step vector and its rule rows; every edge starts on kind 0.
    """
    index = _frame_index([0] * len(moduli), moduli)
    return index, {cls: (_box_index(step, moduli, moduli), rules, bytearray(len(index)))
                   for cls, (step, rules) in steps.items()}


def _mark_core(kinds: Sequence[bytearray], place: Sequence[int], value: int) -> None:
    """Give the edges of a 2 x ... x 2 cube kind ``value``: ``place`` lists
    the frame index of each of its 3^k vertices in row-major order, and
    ``kinds[i]`` is the class along its axis i + 1."""
    k = len(kinds)
    for i, kind in enumerate(kinds):
        for u in _box_index([0] * k, [2 if j == i else 3 for j in range(k)], [3] * k):
            kind[place[u]] = value


def _scan_coloring(
    items: Iterable[tuple[Hashable, object]],
    index: dict[Vertex, int],
    classes: dict[Hashable, _EdgeClass],
    slot_count: int,
    slot_of: Callable[[object], Optional[int]],
) -> _Scan:
    """The kernel: key validity, palette, placement and properness in one pass.

    ``slot_of`` maps a color to its palette slot, or to None when the
    color is outside the palette.  This is the one place that decides
    whether an edge may carry a slot: the edge based at u may when its
    class's ``rules[kind[u]][slot]`` is set, else it is ``misplaced``.
    """
    seen = bytearray(len(index) * slot_count)
    count = 0
    alien: list = []
    off_palette: list = []
    misplaced: list = []
    clashes: list = []
    for key, color in items:
        try:
            base, cls = key
            high, rules, kind = classes[cls]
            u = index[base]
        except (KeyError, TypeError, ValueError):
            alien.append(key)
            continue
        v = high[u]
        if v < 0:
            alien.append(key)
            continue
        count += 1
        try:
            slot = slot_of(color)
        except TypeError:  # an unhashable color
            slot = None
        if slot is None:
            off_palette.append((key, color))
            continue
        if not rules[kind[u]][slot]:
            misplaced.append((key, color))
        at = u * slot_count + slot
        if seen[at]:
            clashes.append((u, slot))
        seen[at] = 1
        at = v * slot_count + slot
        if seen[at]:
            clashes.append((v, slot))
        seen[at] = 1
    return _Scan(count, alien, off_palette, misplaced, clashes, seen)


def _certify_level(
    items: Iterable[tuple[Hashable, object]], moduli: Sequence[int],
    steps: dict[Hashable, tuple[Vector, tuple[bytes, ...]]],
    cores: Iterable[tuple[Sequence[Hashable], Sequence[Vertex]]], palette: Sequence[object],
) -> tuple[_Scan, list[str]]:
    """Certify a torus coloring in one kernel pass: the torus path, and
    every level of the layered one.

    ``steps`` gives each edge class its step and rule rows, as
    ``_torus_frame`` takes them; each of ``cores`` is a cube's classes
    along its axes and its 3^k reduced vertices in row-major order, whose
    edges turn kind 1.  Returns the scan, and its totality, palette and
    properness problems, one line each.
    """
    index, classes = _torus_frame(moduli, steps)
    for keys, vertices in cores:
        _mark_core([classes[key][2] for key in keys], [index[v] for v in vertices], 1)
    slot_of = {color: slot for slot, color in enumerate(palette)}.get
    scan = _scan_coloring(items, index, classes, len(palette), slot_of)
    problems = []
    missing = len(steps) * len(index) - scan.count
    if missing or scan.alien:
        line = f"edge totality broken: {missing} missing, {len(scan.alien)} alien"
        if scan.alien:
            line += f" (first alien key: {scan.alien[0]!r})"
        problems.append(line)
    if scan.off_palette:
        key, color = scan.off_palette[0]
        problems.append(
            f"{len(scan.off_palette)} edges colored outside the palette of "
            f"{len(palette)} colors (first: {key} colored {color!r})"
        )
    if scan.clashes:
        u, slot = scan.clashes[0]
        vertex = next(v for v, i in index.items() if i == u)
        problems.append(
            f"coloring is not proper: vertex {vertex} sees color {palette[slot]} "
            f"twice ({len(scan.clashes)} repeats in all)"
        )
    return scan, problems
