"""Brute-force references that the tests hold the package's checks against.

Each one reads a definition literally and makes no claim to speed:

* ``endpoints`` and ``verify_proper``: the two vertices of a (base,
  axis) grid edge, and properness of any set of such keys, the generic
  form of what the one-pass verifiers check on their own edge sets;
* ``contains``: whether a box holds a vertex, bound by bound;
* ``allowed_core_edges``: the torus edges of the cores of a tiling's
  all-even regions as a set of keys, the reference for the core kinds
  that ``chromatile.grid._certify_level`` marks in its frame for
  ``chromatile.tiling.verify_tiling_coloring``;
* ``lattice_contains`` and ``is_linearly_independent``: membership in
  a lattice given by HNF rows, and the independence test that
  ``decompose`` applies pair by pair;
* ``to_ambient``: one chart point of a level mapped onto the torus, the
  scalar form of ``CosetModel.orbit``;
* ``admissible_shifts``: every even core shift a side-d cube admits;
* ``_bc1`` and ``_bc2``: the rectangle builders as the induction is
  written, through ``_peel``: color a layer recursively, copy it to
  every height and search each layer vertex's free color among the
  candidates, the reference for the closed-form rule of
  ``chromatile.rectcolor._read_off``;
* ``box_frame`` and ``box_holds``: the rectangle conditions checked by
  the per-edge kernel ``chromatile.grid._scan_coloring`` over a frame of
  vertex tuples, the reference for the block certifier of
  ``chromatile.rectcolor``;
* ``read_off`` and ``read_off_bc1``, ``read_off_bc2`` and
  ``read_off_shifted_core``: the closed-form rule written edge by edge
  into a dict through ``_store``, the reference for the byte runs that
  ``chromatile.rectcolor._read_off`` writes path by path;
* ``placed``: a region's ``local_edges`` blocks read one frame position
  at a time into torus edge keys, the scalar form of the level placer
  ``chromatile.tiling._place_level``, which ``color_tiling`` and
  ``run_layered`` share;
* ``SftPattern``, ``matching_patterns`` and ``respects``: forbidden
  patterns on arbitrary finite supports, the generic form of
  ``respects_matching``;
* ``maximum_matching_size_exhaustive``: branch-and-memoize maximum
  matching over the graph's ``vertices`` and ``neighbors``, the
  reference for ``has_perfect_matching``'s rule on generator orders;
* ``edge_keys`` and ``edge_endpoints``: every edge of a Schreier graph
  as a (base, lex positive generator) key, and the key's two vertices;
* ``chromatic_index_by_search`` and ``_edge_colorable``: the least k
  that admits a proper edge k-coloring, found by backtracking over
  ``edge_keys`` with fail-first ordering and the colors around one
  vertex pinned, the reference for ``chromatile.lowerbound``'s
  ``chromatic_index``, which reads chi' off generator parity;
* ``render_svg``: the straightforward SVG renderer that formats every
  segment end on its own, the reference for ``chromatile.render``;
* ``serialize_coloring`` and ``serialize_layered``: the document writers
  that group the records by base and sort them, and ``read_coloring``:
  the record reader that strips every field of every record, the
  references for ``chromatile.document``'s frame walk and record loop;
* ``search_respecting_labelings``: backtracking that labels one vertex
  at a time and checks each label against its neighbours, the
  reference for the perfect-matching enumeration in
  ``chromatile.lowerbound``;
* ``orbit_reps_by_walk``: the least point of every orbit, found by
  walking the whole torus in lex order, the reference for the coset
  transversal that ``chromatile.layered.build_model`` reads off an HNF;
* ``rational_coordinates``, ``solve_integer_combination`` and
  ``smallest_multiple_in``: Gaussian elimination over the rationals,
  the references for ``chromatile.lattice``'s solves through one
  integer kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from chromatile.document import (
    COLORING_FORMAT,
    LAYERED_FORMAT,
    _META_ORDER,
    ColoringDocument,
    LayeredDocument,
    _field,
    _int,
    fmt_vec,
)
from chromatile.errors import InfeasibleError, InvalidInputError, VerificationError
from chromatile.grid import (
    Box, Edge, SchreierGraphView, Torus, Vertex, _frame_index, _mark_core, _outer_sum,
    _scan_coloring, _strides, adjacent_edges, edges_in,
)
from chromatile.lattice import (
    GeneratorSet,
    SubgroupBasis,
    Vector,
    _pivot_col,
    canonical_rep,
    lattice_rank,
    vneg,
)
from chromatile.layered import CosetModel
from chromatile.lowerbound import _check_moduli
from chromatile.rectcolor import C, P, _store, palette
from chromatile.render import _MARGIN, _STUB, _UNIT, _color_map
from chromatile.tiling import Tiling, is_all_even, region_frame


def endpoints(edge: Edge) -> tuple[Vertex, Vertex]:
    """The vertices base and base + e_axis of the edge (base, axis)."""
    base, axis = edge
    return base, tuple(x + 1 if i == axis - 1 else x for i, x in enumerate(base))


def verify_proper(coloring: dict[Edge, str]) -> bool:
    """No two colored edges sharing a vertex carry the same color."""
    at_vertex: dict[Vertex, set] = {}
    for edge, color in coloring.items():
        for v in endpoints(edge):
            bucket = at_vertex.setdefault(v, set())
            if color in bucket:
                return False
            bucket.add(color)
    return True


def contains(box: Box, v: Vertex) -> bool:
    """Whether v lies in the box: b_i <= v_i <= b_i + a_i on every axis."""
    return all(b <= x <= b + a for x, b, a in zip(v, box.origin, box.sizes))


def allowed_core_edges(tiling: Tiling) -> set[Edge]:
    """Torus edges on which the extra color may appear in core mode."""
    reduce = tiling.torus.reduce
    return {
        (reduce(base), axis)
        for region in tiling.regions
        if is_all_even(region)
        for base, axis in edges_in(region.core())
    }


def lattice_contains(v: Sequence[int], hnf_rows: Sequence[Vector]) -> bool:
    """Membership of v in the lattice given by canonical HNF rows."""
    w = list(v)
    for row in hnf_rows:
        c = _pivot_col(row)
        if w[c]:
            q, rem = divmod(w[c], row[c])
            if rem:
                return False
            w = [a - q * b for a, b in zip(w, row)]
    return not any(w)


def is_linearly_independent(s: GeneratorSet | Iterable[Vector]) -> bool:
    """The independence test used when layering a generating set.

    Equivalent to: for every s in S, <s> meets <S minus the pair of s>
    only at zero.  Each +/- pair must contribute one unit of rational
    rank beyond the rest.
    """
    if isinstance(s, GeneratorSet):
        reps = s.pairs()
    else:
        reps = sorted({canonical_rep(tuple(v)) for v in s})
    if not reps:
        return True
    widths = {len(v) for v in reps}
    if len(widths) != 1:
        raise InvalidInputError("dimension mismatch among members")
    return lattice_rank(reps) == len(reps)


def to_ambient(model: CosetModel, rep: Vertex, z: Vertex) -> Vertex:
    """rep + sum_j z_j * basis_j, reduced modulo the ambient torus."""
    v = list(rep)
    for zj, b in zip(z, model.basis):
        for t in range(len(v)):
            v[t] += zj * b[t]
    return tuple(x % q for x, q in zip(v, model.moduli))


def admissible_shifts(d: int, n: int) -> Iterator[Vector]:
    """All even shift vectors usable with a side-d cube, 0 first."""
    if d % 4 != 2:
        raise InfeasibleError(f"side {d} is not congruent to 2 mod 4")
    k = (d - 2) // 4
    bound = max(2 * k - 2, 0)
    values = list(range(-bound, bound + 1, 2))
    values.sort(key=lambda v: (abs(v), v))

    def rec(prefix: tuple[int, ...]) -> Iterator[Vector]:
        if len(prefix) == n:
            yield prefix
            return
        for v in values:
            yield from rec(prefix + (v,))

    return rec(())


# ---------------------------------------------------------------------------
# the peeling rectangle builders, as the induction is written
# ---------------------------------------------------------------------------

def _vertices(origin: Vertex, sizes: tuple[int, ...]) -> Iterator[Vertex]:
    return product(*[range(b, b + a + 1) for b, a in zip(origin, sizes)])


def _adjacent_edges(origin: Vertex, sizes: tuple[int, ...], axes: Iterable[int]) -> list[Edge]:
    edges = []
    for ax in axes:
        i = ax - 1
        cross = [
            (b,) if j == i else range(b, b + a + 1)
            for j, (b, a) in enumerate(zip(origin, sizes))
        ]
        low = [(origin[i] - 1,) if j == i else r for j, r in enumerate(cross)]
        high = [(origin[i] + sizes[i],) if j == i else r for j, r in enumerate(cross)]
        for base in product(*low):
            edges.append((base, ax))
        for base in product(*high):
            edges.append((base, ax))
    edges.sort()
    return edges


def _vertex_colors(coloring: dict[Edge, str], v: Vertex, axes: Sequence[int]) -> set:
    """Colors already present on edges at v along the given axes."""
    seen = set()
    for ax in axes:
        down = tuple(x - 1 if i == ax - 1 else x for i, x in enumerate(v))
        for e in ((v, ax), (down, ax)):
            c = coloring.get(e)
            if c is not None:
                seen.add(c)
    return seen


def _pick_free(candidates: Sequence[str], taken: set) -> str:
    for c in candidates:
        if c not in taken:
            return c
    raise VerificationError("no free color; candidate accounting is broken")


def _alternate_path(
    out: dict[Edge, str], start: Vertex, axis: int, count: int, first: str, second: str
) -> None:
    """Color ``count`` consecutive axis-parallel edges first, second, first, ..."""
    base = list(start)
    for step in range(count):
        _store(out, (tuple(base), axis), first if step % 2 == 0 else second)
        base[axis - 1] += 1


def _peel(
    out: dict[Edge, str],
    origin: Vertex,
    sizes: tuple[int, ...],
    rest: tuple[int, ...],
    peel: int,
    second: str,
) -> None:
    """The inductive step: color a layer, copy it along ``peel``, close the paths.

    The layer (extent 0 along ``peel``) is colored over the ``rest`` axes
    by ``_bc1`` and copied to every height.  Adjacent edges along
    ``peel`` take its direction color, and each path along ``peel``
    alternates the layer vertex's first free color with ``second``:
    the fresh plain color for 2n+1 colors, or c_peel when the side is
    odd (an odd path starts and ends with the free color).
    """
    i = peel - 1
    layer_sizes = tuple(0 if j == i else a for j, a in enumerate(sizes))
    layer: dict[Edge, str] = {}
    _bc1(layer, origin, layer_sizes, rest)
    for h in range(sizes[i] + 1):
        for (base, axis), color in layer.items():
            _store(out, (base[:i] + (base[i] + h,) + base[i + 1:], axis), color)

    for e in _adjacent_edges(origin, sizes, (peel,)):
        _store(out, e, C(peel))

    candidates = [C(ax) for ax in sorted(rest)] + [P(j) for j in range(1, len(rest) + 2)]
    for pos in _vertices(origin, layer_sizes):
        taken = _vertex_colors(layer, pos, rest)
        if len(taken) != 2 * len(rest):
            raise VerificationError("layer vertex is missing incident colors")
        free = _pick_free(candidates, taken)
        _alternate_path(out, pos, peel, sizes[i], free, second)


def _bc1(
    out: dict[Edge, str], origin: Vertex, sizes: tuple[int, ...], axes: tuple[int, ...]
) -> None:
    """Boundary-condition coloring over the active axes with 2*dim+1 colors.

    dim = len(axes).  Colors used: c_ax for active axes plus plain
    colors 1..dim+1.  Peels the last axis; no axes give no edges.
    """
    if axes:
        _peel(out, origin, sizes, axes[:-1], axes[-1], P(len(axes) + 1))


def _bc2(out: dict[Edge, str], origin: Vertex, sizes: tuple[int, ...], odd_axis: int) -> None:
    """Boundary-condition coloring with 2n colors; needs an odd side."""
    if sizes[odd_axis - 1] % 2 == 0:
        raise InfeasibleError(f"axis {odd_axis} of {sizes} is not odd")
    rest = tuple(ax for ax in range(1, len(sizes) + 1) if ax != odd_axis)
    _peel(out, origin, sizes, rest, odd_axis, C(odd_axis))


# ---------------------------------------------------------------------------
# the closed-form rule of the rectangle builders, one edge at a time
# ---------------------------------------------------------------------------

def box_frame(
    box: Box, rules: Sequence[tuple[bytes, ...]]
) -> tuple[dict[Vertex, int], dict[int, tuple]]:
    """Frame and edge classes (keyed by axis) of the edges in a box and
    adjacent to it; class i + 1 takes the rule rows ``rules[i]``.

    The frame is the box padded by one vertex on every side, so the box
    spans frame offsets 1 .. a_i + 1.  Along its own axis an edge's base
    runs from offset 0 to a_i + 1; along every other axis it stays inside.
    The adjacent edges, at offsets 0 and a_i + 1, are kind 1, the rest 0.
    """
    radices = [a + 3 for a in box.sizes]
    index = _frame_index([b - 1 for b in box.origin], radices)
    absent = -len(index)  # keeps every sum it enters negative
    strides = _strides(radices)
    classes = {}
    for i in range(box.n):
        columns = [
            [(x + 1) * st if x <= a + 1 else absent for x in range(a + 3)]
            if j == i
            else [x * st if 1 <= x <= a + 1 else absent for x in range(a + 3)]
            for j, (a, st) in enumerate(zip(box.sizes, strides))
        ]
        ends = [[int(j == i and x in (0, a + 1)) for x in range(a + 3)]
                for j, a in enumerate(box.sizes)]
        classes[i + 1] = (_outer_sum(columns), rules[i], bytearray(_outer_sum(ends)))
    return index, classes


def box_holds(coloring: dict[Edge, str], box: Box, core: Optional[Box] = None) -> bool:
    """The rectangle conditions in one ``_scan_coloring`` pass over the
    coloring's items: proper, palette-only, no alien keys, adjacent edges
    along e_i colored c_i and, given a core, color n+1 only on its edges.
    Raises InvalidInputError when an edge of the box or an adjacent one is
    missing."""
    n = box.n
    everywhere = b"\x01" * (2 * n + 1)
    inside = everywhere if core is None else everywhere[:-1] + b"\x00"
    # kind 0: inside the box, kind 1: adjacent, kind 2: on the core
    rules = [(inside, bytes(slot == i for slot in range(2 * n + 1)), everywhere)
             for i in range(n)]
    index, classes = box_frame(box, rules)
    if core is not None:
        _mark_core([kind for _, _, kind in classes.values()],
                   [index[v] for v in core.vertices()], 2)
    slot_of = {color: slot for slot, color in enumerate(palette(n))}.get
    scan = _scan_coloring(coloring.items(), index, classes, 2 * n + 1, slot_of)
    # valid keys are distinct edges of the set, so fewer means missing ones
    if scan.count < len(edges_in(box)) + len(adjacent_edges(box)):
        raise InvalidInputError("coloring is not total on the box and its adjacent edges")
    return not (scan.alien or scan.off_palette or scan.misplaced or scan.clashes)


def read_off(out: dict[Edge, str], origin: Vertex, sizes: tuple[int, ...],
             chain: Sequence[tuple[int, str]]) -> None:
    """Color the box and its adjacent edges by the rule of the
    ``chromatile.rectcolor`` docstring; ``chain`` lists (r_j, s_j) for
    j = 1..m.  Each path along r_j is written edge by edge: c_{r_j},
    free, s_j, free, ..., c_{r_j}.
    """
    first = P(1)
    # misses[i][x]: the color a vertex at coordinate x along r_i misses
    # on the first i axes, or None where it misses free_{i-1}
    misses: list[dict[int, Optional[str]]] = []
    for j, (ax, second) in enumerate(chain):
        i, a = ax - 1, sizes[ax - 1]
        direction = C(ax)
        below = [(misses[p], chain[p][0] - 1) for p in reversed(range(j))]
        cross = [(b,) if k == i else range(b, b + s + 1)
                 for k, (b, s) in enumerate(zip(origin, sizes))]
        for start in product(*cross):
            free = next((m for row, k in below if (m := row[start[k]]) is not None), first)
            base = list(start)
            base[i] -= 1
            _store(out, (tuple(base), ax), direction)
            for h in range(a):
                base[i] += 1
                _store(out, (tuple(base), ax), second if h % 2 else free)
            base[i] += 1
            _store(out, (tuple(base), ax), direction)
        misses.append({origin[i] + x: second if x == 0 else direction if x < a
                       else second if a % 2 else None for x in range(a + 1)})


def read_off_bc1(box: Box, axes: Optional[Sequence[int]] = None) -> dict[Edge, str]:
    """The rule with r_1..r_m = ``axes`` (ascending by default) and s_j = P(j+1)."""
    out: dict[Edge, str] = {}
    axes = range(1, box.n + 1) if axes is None else axes
    read_off(out, box.origin, box.sizes, [(ax, P(j)) for j, ax in enumerate(axes, start=2)])
    return out


def read_off_bc2(box: Box, odd_axis: int) -> dict[Edge, str]:
    """The rule over the other axes in ascending order with s_j = P(j+1),
    then the odd axis with s_m = c_odd."""
    out: dict[Edge, str] = {}
    rest = [ax for ax in range(1, box.n + 1) if ax != odd_axis]
    chain = [(ax, P(j)) for j, ax in enumerate(rest, start=2)]
    read_off(out, box.origin, box.sizes, chain + [(odd_axis, C(odd_axis))])
    return out


def read_off_shifted_core(box: Box, t: Vector) -> dict[Edge, str]:
    """The core construction stage by stage: per axis two odd slabs by
    ``read_off_bc2`` around a middle slab of extent 2, then the 2-cube
    left at the t-shifted core by ``read_off_bc1``, all into one dict."""
    n, k = box.n, (box.sizes[0] - 2) // 4
    out: dict[Edge, str] = {}
    origin, current = list(box.origin), list(box.sizes)
    for i in range(n) if k else ():
        low, high = 2 * k - 1 + t[i], 2 * k - 1 - t[i]
        for b, extent in ((origin[i], low), (origin[i] + low + 4, high)):
            slab = Box(tuple(b if j == i else x for j, x in enumerate(origin)),
                       tuple(extent if j == i else a for j, a in enumerate(current)))
            for edge, color in read_off_bc2(slab, i + 1).items():
                _store(out, edge, color)
        origin[i] += low + 1
        current[i] = 2
    for edge, color in read_off_bc1(Box(tuple(origin), tuple(current))).items():
        _store(out, edge, color)
    return out


def placed(blocks: Sequence[bytes], region: Box, torus: Torus) -> dict[Edge, str]:
    """A region's ``local_edges`` blocks as a torus coloring: every nonzero
    byte, frame position by frame position, sent through ``region_frame``."""
    points = list(torus.vertices())
    names = palette(region.n)
    frame = region_frame(region, torus.moduli)
    return {(points[frame[u]], axis): names[slot - 1]
            for axis, block in enumerate(blocks, start=1)
            for u, slot in enumerate(block) if slot}


@dataclass(frozen=True)
class SftPattern:
    """A finite forbidden pattern: labels on a finite support in Z^n."""

    entries: tuple[tuple[Vector, Vector], ...]  # (point, label), sorted

    def __post_init__(self) -> None:
        if not self.entries:
            raise InvalidInputError("pattern support must be nonempty")

    @classmethod
    def from_labels(cls, labels: dict[Vector, Vector]) -> "SftPattern":
        return cls(tuple(sorted(labels.items())))

    @property
    def support(self) -> tuple[Vector, ...]:
        return tuple(p for p, _ in self.entries)


def matching_patterns(s: GeneratorSet) -> list[SftPattern]:
    """The 2m(2m-1) patterns whose absence makes a labeling a matching.

    With S enumerated as u_1..u_{2m} (lex order), pattern (i, j), i != j,
    puts u_i at the origin and -u_j at u_i: following your own arrow must
    come straight back.
    """
    members = sorted(s.members)
    return [
        SftPattern.from_labels({(0,) * s.dimension: ui, ui: vneg(uj)})
        for i, ui in enumerate(members)
        for j, uj in enumerate(members)
        if i != j
    ]


def respects(
    torus: Torus, phi: dict[Vertex, Vector], patterns: Sequence[SftPattern], s: GeneratorSet
) -> bool:
    """True when no pattern occurs in the periodic pullback of the labeling
    phi, a map from every torus vertex to a generator.

    A pattern occurs at a torus point v when every support point f
    satisfies phi((v + f) mod q) = label(f).  Moduli no larger than the
    supports' reach, or that merge generators, are rejected.
    """
    reach = max((abs(x) for p in patterns for point in p.support for x in point), default=0)
    if any(q <= reach for q in torus.moduli):
        raise InfeasibleError(f"moduli {torus.moduli} too small: pattern supports reach {reach}")
    SchreierGraphView(torus, s)
    for pattern in patterns:
        for v in torus.vertices():
            if all(phi[torus.add(v, f)] == lab for f, lab in pattern.entries):
                return False
    return True


def vertices(view: SchreierGraphView) -> list[Vertex]:
    """Every vertex of the graph, sorted."""
    return sorted(view.domain.vertices())


def neighbors(view: SchreierGraphView, x: Vertex) -> list[Vertex]:
    """The endpoints u.x of the edges at x, one per generator, sorted."""
    return sorted(view.domain.add(x, u) for u in view.generators)


def maximum_matching_size_exhaustive(view: SchreierGraphView) -> int:
    """Branch-and-memoize maximum matching; exact, for tiny graphs only."""
    verts = vertices(view)
    if len(verts) > 16:
        raise InvalidInputError("exhaustive matching is limited to 16 vertices")
    index = {v: i for i, v in enumerate(verts)}
    adj = [sorted(index[w] for w in neighbors(view, v)) for v in verts]

    @lru_cache(maxsize=None)
    def best(uncovered: frozenset[int]) -> int:
        if not uncovered:
            return 0
        v = min(uncovered)
        rest = uncovered - {v}
        out = best(rest)  # leave v unmatched
        for w in adj[v]:
            if w in rest:
                out = max(out, 1 + best(rest - {w}))
        return out

    return best(frozenset(range(len(verts))))


def edge_keys(view: SchreierGraphView) -> list[tuple[Vertex, Vector]]:
    """Canonical edges (base, step) with step the lex positive generator."""
    reps = view.generators.pairs()
    return sorted((x, u) for x in view.domain.vertices() for u in reps)


def edge_endpoints(view: SchreierGraphView, key: tuple[Vertex, Vector]) -> tuple[Vertex, Vertex]:
    base, step = key
    return base, view.domain.add(base, step)


def _edge_colorable(
    edges: list[tuple[Vertex, Vertex]],
    incident: dict[Vertex, list[int]],
    k: int,
    pinned: list[int],
) -> bool:
    """Backtracking edge-coloring decision with fail-first ordering."""
    color = [0] * len(edges)
    used: dict[Vertex, set[int]] = {v: set() for v in incident}

    def assign(i: int, c: int) -> None:
        color[i] = c
        for v in edges[i]:
            used[v].add(c)

    def unassign(i: int) -> None:
        c = color[i]
        color[i] = 0
        for v in edges[i]:
            used[v].discard(c)

    # fix the colors around the first vertex: any proper coloring can be
    # relabeled to match, which kills the k! color symmetry
    for c, i in enumerate(pinned, start=1):
        if c > k:
            return False
        a, b = edges[i]
        if c in used[a] or c in used[b]:
            return False
        assign(i, c)

    order = [i for i in range(len(edges)) if color[i] == 0]

    def candidates(i: int) -> list[int]:
        a, b = edges[i]
        taken = used[a] | used[b]
        return [c for c in range(1, k + 1) if c not in taken]

    def rec(remaining: list[int]) -> bool:
        if not remaining:
            return True
        best_i, best_c = None, None
        for i in remaining:
            cs = candidates(i)
            if best_c is None or len(cs) < len(best_c):
                best_i, best_c = i, cs
                if not cs:
                    return False
                if len(cs) == 1:
                    break
        rest = [i for i in remaining if i != best_i]
        for c in best_c:
            assign(best_i, c)
            if rec(rest):
                return True
            unassign(best_i)
        return False

    return rec(order)


def chromatic_index_by_search(view: SchreierGraphView, k_max: int) -> Optional[int]:
    """Least k <= k_max admitting a proper edge k-coloring, else None.

    Exact backtracking search starting at the maximum degree, with the
    colors around one vertex pinned to break color symmetry.  A regular
    graph of odd order starts one higher: each color class of a
    max-degree coloring would be a perfect matching.
    """
    keys = edge_keys(view)
    edges = [edge_endpoints(view, key) for key in sorted(keys)]
    incident: dict[Vertex, list[int]] = {}
    for i, (a, b) in enumerate(edges):
        incident.setdefault(a, []).append(i)
        incident.setdefault(b, []).append(i)
    if not edges:
        return 0
    max_degree = max(len(v) for v in incident.values())
    start = max_degree
    if len(incident) % 2 and all(len(v) == max_degree for v in incident.values()):
        start += 1
    v0 = min(incident)
    pinned = incident[v0]
    for k in range(start, k_max + 1):
        if _edge_colorable(edges, incident, k, pinned):
            return k
    return None


def render_svg(doc: ColoringDocument, slices: dict[int, int] | None = None) -> str:
    """Render the document, with ``slices`` pinning axes to values.

    The axes not pinned must number exactly two; the first free axis
    runs right, the second runs up.
    """
    slices = dict(slices or {})
    for ax in slices:
        if not 1 <= ax <= doc.n:
            raise InvalidInputError(f"slice axis {ax} out of range 1..{doc.n}")
    free = [ax for ax in range(1, doc.n + 1) if ax not in slices]
    if len(free) != 2:
        raise InvalidInputError(
            f"need exactly 2 free axes to render, have {len(free)} "
            f"(dimension {doc.n}, sliced {sorted(slices)})"
        )
    h_ax, v_ax = free

    moduli = None
    if doc.kind == "torus":
        moduli = tuple(int(x) for x in doc.meta["moduli"].split(","))

    segments = []  # (x1, y1, x2, y2, color-name)
    for (base, axis), color in sorted(doc.coloring.items()):
        if any(base[ax - 1] != val for ax, val in slices.items()):
            continue
        if axis in slices:
            continue
        x, y = base[h_ax - 1], base[v_ax - 1]
        dx = 1 if axis == h_ax else 0
        dy = 1 if axis == v_ax else 0
        wraps = moduli is not None and base[axis - 1] == moduli[axis - 1] - 1
        if wraps:
            # draw a stub leaving the frame and a stub entering at 0
            segments.append((x, y, x + dx * _STUB, y + dy * _STUB, color))
            ox = 0 if axis == h_ax else x
            oy = 0 if axis == v_ax else y
            segments.append((ox, oy, ox - dx * _STUB, oy - dy * _STUB, color))
        else:
            segments.append((x, y, x + dx, y + dy, color))

    if not segments:
        raise InvalidInputError("nothing to render in the requested slice")

    xs = [s[0] for s in segments] + [s[2] for s in segments]
    ys = [s[1] for s in segments] + [s[3] for s in segments]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)

    def px(x: float) -> float:
        return round(_MARGIN + (x - x_lo) * _UNIT, 1)

    def py(y: float) -> float:
        return round(_MARGIN + (y_hi - y) * _UNIT, 1)

    legend_w = 120
    width = int(2 * _MARGIN + (x_hi - x_lo) * _UNIT) + legend_w
    height = int(2 * _MARGIN + (y_hi - y_lo) * _UNIT)
    height = max(height, 2 * _MARGIN + len(doc.legend) * 18)

    colors = _color_map(doc.legend)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for x1, y1, x2, y2, name in segments:
        out.append(
            f'<line x1="{px(x1)}" y1="{py(y1)}" x2="{px(x2)}" y2="{py(y2)}" '
            f'stroke="{colors[name]}" stroke-width="4" stroke-linecap="round"/>'
        )
    # small vertex dots on integer positions
    seen = set()
    for x1, y1, x2, y2, _ in segments:
        for x, y in ((x1, y1), (x2, y2)):
            if x == int(x) and y == int(y) and (x, y) not in seen:
                seen.add((x, y))
                out.append(
                    f'<circle cx="{px(x)}" cy="{py(y)}" r="2.5" fill="#222"/>'
                )
    lx = width - legend_w + 10
    out.append(
        f'<text x="{lx}" y="{_MARGIN - 20}" font-family="monospace" '
        f'font-size="13">legend</text>'
    )
    for i, name in enumerate(doc.legend):
        yy = _MARGIN + i * 18
        out.append(
            f'<line x1="{lx}" y1="{yy}" x2="{lx + 24}" y2="{yy}" '
            f'stroke="{colors[name]}" stroke-width="4"/>'
        )
        out.append(
            f'<text x="{lx + 32}" y="{yy + 4}" font-family="monospace" '
            f'font-size="12">{name}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _edge_records(
    items: Iterable[tuple[tuple[Vertex, object], str]], fmt_class: Callable[[object], str]
) -> list[str]:
    """One "base ; edge class ; color" line per edge, sorted by (base, class)."""
    by_base: dict[Vertex, list[tuple[object, str]]] = {}
    for (base, cls), color in items:
        by_base.setdefault(base, []).append((cls, color))
    lines = []
    for base in sorted(by_base):
        for cls, color in sorted(by_base[base]):
            lines.append(f"{fmt_vec(base)} ; {fmt_class(cls)} ; {color}")
    return lines


def serialize_coloring(doc: ColoringDocument) -> str:
    """A rect or torus document, its records sorted by (base, axis)."""
    lines = [f"format={COLORING_FORMAT}", f"kind={doc.kind}", f"n={doc.n}"]
    for key in _META_ORDER:
        if key in doc.meta:
            lines.append(f"{key}={doc.meta[key]}")
    for color in doc.coloring.values():
        if color not in doc.legend:
            raise InvalidInputError(f"color {color} missing from the legend")
    lines.append("palette=" + ",".join(doc.legend))
    lines.append(f"edges={len(doc.coloring)}")
    lines += _edge_records(doc.coloring.items(), str)
    return "\n".join(lines) + "\n"


def serialize_layered(doc: LayeredDocument) -> str:
    """A layered document, its records sorted by (base, step)."""
    lines = [
        f"format={LAYERED_FORMAT}",
        f"n={doc.n}",
        f"moduli={fmt_vec(doc.moduli)}",
        "generators=" + "|".join(fmt_vec(g) for g in doc.generators),
        f"levels={doc.levels}",
        f"d={doc.d}",
        f"alpha={doc.alpha}",
        f"beta={doc.beta}",
        f"s={fmt_vec(doc.s)}",
    ]
    for level, pts in enumerate(doc.k_sets):
        lines.append(f"kset{level}=" + "|".join(fmt_vec(p) for p in pts))
    for level, rep, idx, a in doc.shifts:
        lines.append(f"shift={level} ; {fmt_vec(rep)} ; {idx} ; {a}")
    lines.append("palette=" + ",".join(doc.legend))
    lines.append(f"edges={len(doc.coloring)}")
    lines += _edge_records(doc.coloring.items(), fmt_vec)
    return "\n".join(lines) + "\n"


def _parse_vec(text: str) -> Vector:
    try:
        return tuple(int(p) for p in text.strip().split(","))
    except ValueError as exc:
        raise InvalidInputError(f"bad vector {text!r}") from exc


def read_coloring(text: str) -> dict:
    """The coloring of a coloring or layered document's records.

    Strips every field of every record and checks each record on its
    own: three fields, a base of dimension n, inside [0, q_i) on a
    torus, a color from the legend, an axis in 1..n or a listed
    generator, and an edge not seen before.  Checks no header beyond
    what reading the records needs, and no rect frame.
    """
    header, lines = {}, []
    for line in text.splitlines():
        if ";" in line and not line.startswith("shift="):
            lines.append(line)
        elif "=" in line and not line.startswith("shift="):
            key, value = line.split("=", 1)
            header[key.strip()] = value.strip()
    n = _field(header, "n")
    layered = header.get("format") == LAYERED_FORMAT
    moduli: Optional[Vector] = None
    if layered or header.get("kind") == "torus":
        moduli = _parse_vec(header["moduli"])
    legal = {c for c in header.get("palette", "").split(",") if c}
    steps = {_parse_vec(g) for g in header.get("generators", "").split("|") if g}
    coloring: dict = {}
    for line in lines:
        parts = [p.strip() for p in line.split(";")]
        if len(parts) != 3:
            raise InvalidInputError(f"bad edge record {line!r}")
        base = _parse_vec(parts[0])
        if len(base) != n:
            raise InvalidInputError(f"record {line!r} does not fit dimension {n}")
        if moduli is not None and not all(0 <= x < q for x, q in zip(base, moduli)):
            raise InvalidInputError(f"record {line!r} has a base off the torus {fmt_vec(moduli)}")
        if parts[2] not in legal:
            raise InvalidInputError(f"color {parts[2]!r} not in the legend")
        if layered:
            cls = _parse_vec(parts[1])
            if cls not in steps:
                raise InvalidInputError(f"record {line!r} steps by no listed generator")
        else:
            cls = _int(parts[1], line)
            if not 1 <= cls <= n:
                raise InvalidInputError(f"record {line!r} does not fit dimension {n}")
        if (base, cls) in coloring:
            raise InvalidInputError(f"the edge of record {line!r} appears twice")
        coloring[base, cls] = parts[2]
    return coloring


def search_respecting_labelings(
    torus: Torus, s: GeneratorSet, limit: Optional[int] = None
) -> list[dict[Vertex, Vector]]:
    """Exhaustive backtracking over labelings that respect the patterns.

    Assigning phi(v) = g forces phi(v + g) = -g, which prunes hard; the
    search is exact, so an empty result is a proof of nonexistence.
    A ``limit`` below 1 is rejected, since it would stop before the
    first labeling and look like such a proof.
    """
    if limit is not None and limit < 1:
        raise InvalidInputError(f"limit must be >= 1, got {limit}")
    _check_moduli(torus, s)
    vertices = sorted(torus.vertices())
    generators = sorted(s.members)
    found: list[dict[Vertex, Vector]] = []
    phi: dict[Vertex, Vector] = {}

    def consistent(v: Vertex, g: Vector) -> bool:
        w = torus.add(v, g)
        if w in phi and phi[w] != vneg(g):
            return False
        for h in generators:
            u = torus.add(v, vneg(h))
            if phi.get(u) == h and g != vneg(h):
                return False
        return True

    def rec(i: int) -> bool:
        if limit is not None and len(found) >= limit:
            return True
        if i == len(vertices):
            found.append(dict(phi))
            return limit is not None and len(found) >= limit
        v = vertices[i]
        for g in generators:
            if consistent(v, g):
                phi[v] = g
                if rec(i + 1):
                    return True
                del phi[v]
        return False

    rec(0)
    return found


def orbit_reps_by_walk(model: CosetModel) -> tuple[Vertex, ...]:
    """The least point of every orbit of the level, in lex order, found by
    walking every torus vertex and skipping those already seen."""
    orbit_size = 1
    for r in model.chart_moduli:
        orbit_size *= r
    seen: set[Vertex] = set()
    reps = []
    for v in model.ambient_torus().vertices():  # lex order, so each rep is its orbit's least point
        if v in seen:
            continue
        reps.append(v)
        points = model.orbit(v)
        if len(points) != orbit_size:
            raise VerificationError(
                f"orbit of {v} has {len(points)} points, not {orbit_size}"
            )
        before = len(seen)
        seen.update(points)
        if len(seen) - before != orbit_size:
            raise VerificationError("chart is not injective on the orbit")
    return tuple(reps)


def rational_coordinates(
    v: Sequence[int], hnf_rows: Sequence[Vector]
) -> Optional[list[Fraction]]:
    """Coordinates of v w.r.t. HNF rows over Q, or None if outside the span."""
    w = [Fraction(x) for x in v]
    coords = []
    for row in hnf_rows:
        c = _pivot_col(row)
        q = w[c] / row[c]
        coords.append(q)
        if q:
            w = [a - q * b for a, b in zip(w, row)]
    if any(w):
        return None
    return coords


def solve_integer_combination(
    vectors: Sequence[Vector], target: Vector
) -> Optional[tuple[int, ...]]:
    """Solve target = sum a_j * vectors[j] exactly over Z.

    Returns None when no rational solution exists or the rational
    solution is not integral.  The vectors are assumed independent over
    Q, so the solution (if any) is unique.
    """
    m = len(vectors)
    n = len(target)
    # augmented system, one equation per ambient coordinate
    rows = [[Fraction(vectors[j][r]) for j in range(m)] + [Fraction(target[r])]
            for r in range(n)]
    piv_rows: list[int] = []
    r_used = [False] * n
    for col in range(m):
        sel = None
        for r in range(n):
            if not r_used[r] and rows[r][col]:
                sel = r
                break
        if sel is None:
            return None  # vectors were not independent
        r_used[sel] = True
        piv_rows.append(sel)
        pivot = rows[sel][col]
        for r in range(n):
            if r != sel and rows[r][col]:
                f = rows[r][col] / pivot
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[sel])]
    # consistency of the remaining equations
    for r in range(n):
        if not r_used[r] and rows[r][m]:
            return None
    sol = []
    for col, r in enumerate(piv_rows):
        q = rows[r][m] / rows[r][col]
        if q.denominator != 1:
            return None
        sol.append(int(q))
    return tuple(sol)


def smallest_multiple_in(v: Vector, subgroup: SubgroupBasis) -> int:
    """Least k > 0 with k*v in the subgroup.

    Requires v to lie in the rational span of the subgroup; a violation
    indicates a broken layer decomposition upstream, so it raises.
    """
    coords = rational_coordinates(v, subgroup.basis)
    if coords is None:
        raise ValueError(f"{v} lies outside the rational span of the subgroup")
    k = 1
    for c in coords:
        k = k * c.denominator // math.gcd(k, c.denominator)
    return k
