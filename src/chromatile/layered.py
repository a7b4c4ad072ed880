"""Layered (|S|+1)-colorings for arbitrary symmetric generating sets.

The edge set of the Schreier graph for S on a torus splits by layer:
edges stepping by a member of S_i form the graph G_i, and the layers
are colored from the top (i = m) down to 0.  Each level's orbits under
<S_i> are charted as product tori via the level's independent basis,
tiled with marker-sized boxes, and colored with fresh per-level colors;
the one shared color 0 replaces each level's local extra color n_i + 1
and is confined to (shifted) cores.  Each level is placed by
``tiling._place_level`` and certified by ``grid._certify_level``, the
torus path's own: the standard-generator torus is the one-level case,
on the identity chart.

A level below the top must place its cores so color 0 never meets the
already-fixed cores above it.  For each all-even region the chosen core
is the original core translated by a*beta*s for the least a in
[0, alpha] whose translate misses every higher core set; at the full
marker distance d from the decomposition constants such an a always
exists by a counting argument, while desk-scale overrides fail loudly
instead of degrading.

Shift vectors in chart coordinates are a * (coordinates of beta*s in
the level's basis); those coordinates are always even, so shifted-core
colorings apply whenever the bound of ``rectcolor.check_shift`` holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Optional, Sequence

from .errors import InfeasibleError, InvalidInputError, VerificationError
from .grid import SchreierGraphView, Torus, Vertex, _box_index, _certify_level, _outer_sum
from .lattice import (
    Decomposition,
    GeneratorSet,
    Vector,
    decompose_with_constants,
    hermite_normal_form,
    integer_kernel,
    vscale,
)
from .rectcolor import P, check_shift, palette
from .tiling import (
    Tiling, _place_level, brick_tiling, is_all_even, segment_lengths, validate_tiling,
)

ZERO = "0"


@dataclass(frozen=True)
class CosetModel:
    """One level's orbit structure on the ambient torus.

    The chart sends z in Z^{n_i} to rep + sum z_j * basis_j; its kernel
    is the diagonal lattice given by ``chart_moduli``, so every orbit is
    a product torus and all orbits of the level share one shape.

    The chart map is affine, so one *orbit table* serves every orbit of
    the level: ``offsets[t]`` lists sum_j z_j * basis_j[t] mod q_t for
    every chart point z in row-major order, and ``orbit(rep)`` shifts
    those lists by ``rep``.
    """

    level: int
    moduli: tuple[int, ...]  # ambient torus moduli
    basis: tuple[Vector, ...]
    chart_moduli: tuple[int, ...]
    reps: tuple[Vertex, ...]
    offsets: tuple[list[int], ...] = field(repr=False, compare=False)

    @property
    def chart_dim(self) -> int:
        return len(self.basis)

    def chart_torus(self) -> Torus:
        return Torus(self.chart_moduli)

    def ambient_torus(self) -> Torus:
        return Torus(self.moduli)

    def orbit(self, rep: Vertex) -> list[Vertex]:
        """The orbit of rep: rep + sum_j z_j * basis_j, reduced modulo the
        torus, for every chart point z in row-major chart order."""
        return list(zip(*[
            [(x + r) % q for x in column]
            for column, r, q in zip(self.offsets, rep, self.moduli)
        ]))


def _orbit_offsets(
    moduli: Sequence[int], basis: Sequence[Vector], chart_moduli: Sequence[int]
) -> tuple[list[int], ...]:
    """The orbit table of a chart: per ambient coordinate t, sum_j z_j *
    basis_j[t] mod q_t for every chart point z in row-major order."""
    return tuple(
        [x % q for x in _outer_sum([[z * b[t] for z in range(r)]
                                    for b, r in zip(basis, chart_moduli)])]
        for t, q in enumerate(moduli)
    )


def effective_d(dec: Decomposition, d_override: Optional[int]) -> int:
    if d_override is None:
        return dec.d
    if d_override < 2 or d_override % 4 != 2:
        raise InfeasibleError(f"d override {d_override} is not of the form 4k+2")
    return d_override


def build_model(
    s: GeneratorSet,
    dec: Decomposition,
    moduli: Sequence[int],
    d_override: Optional[int] = None,
) -> list[CosetModel]:
    """Coset decomposition of the torus under each level's subgroup.

    Checks that the full generating set acts without self-loops or
    doubled edges, that every level's chart kernel is diagonal (the
    orbits really are product tori), and that every chart circumference
    splits into parts of d and d+1 vertices.  Diagnostics name the
    failing level and circumference.

    A level's orbits are the cosets of the lattice spanned by its basis
    and every q_t * e_t.  With p_t the pivots of that lattice's HNF, the
    points with 0 <= x_t < p_t are the least points of the orbits, in
    lex order; they must number |V| / orbit size, else VerificationError.
    """
    torus = Torus(tuple(int(q) for q in moduli))
    SchreierGraphView(torus, s)  # raises when the action degenerates
    d = effective_d(dec, d_override)

    models = []
    n = s.dimension
    # q_t * e_t for every axis t
    axes = [tuple(q if t == r else 0 for t in range(n)) for r, q in enumerate(torus.moduli)]
    for level in range(dec.level_count + 1):
        basis = tuple(dec.layer_reps(level))
        ni = len(basis)
        rows = [[b[r] for b in basis] + [-x for x in axes[r]] for r in range(n)]
        kernel = [vec[:ni] for vec in integer_kernel(rows, ni + n)]
        kernel_hnf = hermite_normal_form(kernel)
        diagonal = len(kernel_hnf) == ni and all(
            all(x == 0 for t, x in enumerate(row) if t != j) and row[j] > 0
            for j, row in enumerate(kernel_hnf)
        )
        if not diagonal:
            raise InfeasibleError(
                f"level {level}: orbits are not product tori for moduli "
                f"{torus.moduli} (chart kernel {kernel_hnf})"
            )
        chart_moduli = tuple(kernel_hnf[j][j] for j in range(ni))
        for ax, r in enumerate(chart_moduli, start=1):
            if r < 3:
                raise InfeasibleError(
                    f"level {level}: chart circumference {r} on axis {ax} is "
                    f"too small for a regular Schreier graph"
                )
            try:
                segment_lengths(r, d)
            except InfeasibleError as exc:
                raise InfeasibleError(
                    f"level {level}, chart axis {ax}: circumference {r} is not "
                    f"a sum of {d} and {d + 1} parts"
                ) from exc

        # one point per coset: the HNF is triangular with pivot p_t in column t
        span = hermite_normal_form(list(basis) + axes)
        reps = tuple(product(*[range(row[t]) for t, row in enumerate(span)]))
        orbit_size = math.prod(chart_moduli)
        if len(reps) * orbit_size != torus.vertex_count():
            raise VerificationError(
                f"level {level}: {len(reps)} orbits of {orbit_size} points do not "
                f"cover the {torus.vertex_count()} vertices"
            )
        models.append(CosetModel(
            level, torus.moduli, basis, chart_moduli, reps,
            _orbit_offsets(torus.moduli, basis, chart_moduli),
        ))
    return models


def plan_tilings(models: Sequence[CosetModel], d: int) -> list[Tiling]:
    """One aligned chart tiling per level, shared by all of that level's
    orbits; other tilings go to ``run_layered`` directly."""
    return [brick_tiling(model.chart_torus(), d) for model in models]


def level_color_name(color: str, level: int, chart_dim: int) -> str:
    """Map a region-local color onto the level palette; n_i+1 becomes 0.

    c_j becomes "c{j}@{level}" and plain j becomes "p{j}@{level}".
    """
    if color == P(chart_dim + 1):
        return ZERO
    if color.startswith("c"):
        return f"{color}@{level}"
    return f"p{color}@{level}"


def level_palette(level: int, chart_dim: int) -> list[str]:
    return [level_color_name(c, level, chart_dim) for c in palette(chart_dim)[:-1]]


@dataclass(frozen=True)
class LayeredResult:
    coloring: dict[tuple[Vertex, Vector], str]  # (ambient vertex, step) -> color
    k_sets: tuple[frozenset[Vertex], ...]
    shifts: dict[tuple[int, Vertex, int], int]  # (level, orbit rep, region) -> a
    models: tuple[CosetModel, ...]
    tilings: tuple[Tiling, ...]
    dec: Decomposition
    d: int
    moduli: tuple[int, ...]


def run_layered(
    s: GeneratorSet,
    dec: Decomposition,
    models: Sequence[CosetModel],
    tilings: Sequence[Tiling],
) -> LayeredResult:
    """Reverse induction over levels m..0 building one global coloring.

    Every all-even chart region is colored through a shifted core, with
    the shift factor a chosen as the least value in [0, alpha] whose
    translated core avoids all higher levels' core sets; regions with an
    odd side take the 2n_i-coloring and contribute no core.  Each level
    is one call of the level placer ``tiling._place_level``, whose
    one-level case on the identity chart is ``tiling.color_tiling``, so an
    edge that two regions share must get the same color from both, or the
    run raises ColorConflictError.  The coloring is a plain dict keyed
    (ambient vertex, canonical step).  The shift search and the
    chart/ambient agreement check run per orbit; a shifted core's chart
    indices are computed once per level.
    """
    if (len(models) != dec.level_count + 1 or len(tilings) != len(models)
            or any(t.torus.moduli != m.chart_moduli for m, t in zip(models, tilings))):
        raise InvalidInputError("models/tilings do not match the decomposition")
    torus = models[0].ambient_torus()
    if any(m.moduli != torus.moduli for m in models):
        raise InvalidInputError("models were built on different tori")
    d = tilings[0].d
    if any(t.d != d for t in tilings):
        raise InvalidInputError("all levels must share one marker distance")
    beta_s = vscale(dec.beta, dec.s)

    coloring: dict[tuple[Vertex, Vector], str] = {}
    k_sets: list[set[Vertex]] = [set() for _ in models]
    shifts: dict[tuple[int, Vertex, int], int] = {}
    busy: set[Vertex] = set()

    for model in sorted(models, key=lambda m: -m.level):
        level = model.level
        tiling = tilings[level]
        report = validate_tiling(tiling)
        if not report.ok:
            raise InvalidInputError(f"level {level} tiling invalid: " + "; ".join(report.problems))
        ni = model.chart_dim
        coeffs = dec.a_coeffs[level]
        chart_moduli = model.chart_moduli
        cores = [_box_index(region.core().origin, [3] * ni, chart_moduli)
                 if is_all_even(region) else None for region in tiling.regions]
        # (region index, shift factor) -> (shift, shifted core)
        shifted: dict[tuple[int, int], tuple[Vector, list[int]]] = {}

        def choose(rep: Vertex, points: Sequence[Vertex], idx: int) -> Vector:
            if cores[idx] is None:
                return (0,) * ni
            region = tiling.regions[idx]
            base = [points[i] for i in cores[idx]]
            for a in range(dec.alpha + 1):
                offset = vscale(a, beta_s)
                translated = {torus.add(p, offset) for p in base}
                if translated.isdisjoint(busy):
                    break
            else:
                raise InfeasibleError(
                    f"no admissible core shift in [0, {dec.alpha}] at level "
                    f"{level}, orbit {rep}, region {region.origin}; "
                    f"d = {d} is too small for this torus"
                )
            if (idx, a) not in shifted:
                t = tuple(a * c for c in coeffs)
                try:
                    check_shift(region, t)
                except InfeasibleError as exc:
                    raise InfeasibleError(f"level {level}, d = {d}: core {exc}") from exc
                shifted[(idx, a)] = t, _box_index(
                    region.shifted_core(t).origin, [3] * ni, chart_moduli)
            t, core = shifted[(idx, a)]
            if {points[i] for i in core} != translated:
                raise VerificationError("chart/ambient shift disagreement")
            k_sets[level] |= translated
            shifts[(level, rep, idx)] = a
            return t

        # a block byte is a palette slot plus 1
        names = [None] + [level_color_name(c, level, ni) for c in palette(ni)]
        _place_level(coloring, tiling, ((rep, model.orbit(rep)) for rep in model.reps),
                     model.basis, names, False, choose)
        busy |= k_sets[level]

    return LayeredResult(
        coloring=coloring,
        k_sets=tuple(frozenset(ks) for ks in k_sets),
        shifts=shifts,
        models=tuple(models),
        tilings=tuple(tilings),
        dec=dec,
        d=d,
        moduli=torus.moduli,
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayeredReport:
    ok: bool
    problems: tuple[str, ...]
    color_count: int
    zero_edges: int


def verify_layered(
    result: LayeredResult, s: GeneratorSet, moduli: Sequence[int]
) -> LayeredReport:
    """Totality, properness, palette size, level palettes and color-0
    confinement in one pass of the level certifier ``grid._certify_level``.

    A level's edges carry only its own palette, and color 0 only on edges
    of the cores that its shifts place, mapped through its orbit table.
    Each shift must be keyed by an int level, one of its orbit
    representatives and an int region index naming an all-even region,
    have an int factor, and pass ``rectcolor.check_shift``; a shift that
    fails is reported and places no core.
    Its ``k_sets`` entry must be the vertices of those cores, and core
    sets of distinct levels must be disjoint.
    """
    problems: list[str] = []
    torus = Torus(tuple(moduli))
    level_of: dict[Vector, int] = {}
    level_colors: dict[int, list[str]] = {}
    colors = [ZERO]
    for model in result.models:
        for b in model.basis:
            level_of[b] = model.level
        level_colors[model.level] = level_palette(model.level, model.chart_dim)
        colors += level_colors[model.level]

    # one class per canonical step: kind 0 carries the level's palette, kind 1 color 0 too
    steps = {}
    for u in s.pairs():
        if u not in level_of:
            problems.append(f"step {u} belongs to no level's basis")
        row = bytes(color in level_colors.get(level_of.get(u), ()) for color in colors)
        steps[u] = (u, (row, b"\x01" + row[1:]))

    cores: list[set[Vertex]] = [set() for _ in result.models]
    marks = []  # (basis, core vertices), one per placed core
    reps = [set(model.reps) for model in result.models]
    placed: dict = {}  # (level, region index, a) -> the core's chart indices
    for key, a in result.shifts.items():
        if not (isinstance(key, tuple) and len(key) == 3
                and isinstance(key[0], int) and isinstance(key[2], int)):
            problems.append(f"shift {key!r} is not a (level, orbit rep, region index) key")
            continue
        if not isinstance(a, int):
            problems.append(f"shift {key} has factor {a!r}, not an int")
            continue
        level, rep, idx = key
        if level not in range(len(reps)) or rep not in reps[level]:
            problems.append(f"shift {key} names no orbit representative of a level")
            continue
        regions = result.tilings[level].regions
        if idx not in range(len(regions)) or not is_all_even(regions[idx]):
            problems.append(f"shift {key} names no all-even region of level {level}")
            continue
        model = result.models[level]
        if (level, idx, a) not in placed:
            t = vscale(a, result.dec.a_coeffs[level])
            try:
                check_shift(regions[idx], t)
            except (InfeasibleError, InvalidInputError) as exc:
                problems.append(f"shift {key} places no core: {exc}")
                continue
            origin = regions[idx].shifted_core(t).origin
            placed[(level, idx, a)] = _box_index(origin, [3] * len(origin), model.chart_moduli)
        vertices = [tuple((column[i] + r) % q for column, r, q in
                          zip(model.offsets, rep, model.moduli)) for i in placed[(level, idx, a)]]
        cores[level].update(vertices)
        marks.append((model.basis, vertices))

    scan, lines = _certify_level(result.coloring.items(), torus.moduli, steps, marks, colors)
    problems += lines
    escaped = [key for key, color in scan.misplaced if color == ZERO]
    if escaped:
        problems.append(f"color 0 escapes the level-{level_of.get(escaped[0][1])} cores at "
                        f"{escaped[0]} ({len(escaped)} edges in all)")
    foreign = [(key, color) for key, color in scan.misplaced if color != ZERO]
    if foreign:
        (base, step), color = foreign[0]
        problems.append(f"level {level_of.get(step)} edge {(base, step)} colored {color} from "
                        f"another level's palette ({len(foreign)} edges in all)")

    # off-palette colors counted by repr, since they need not be hashable
    off_palette = {repr(color) for _, color in scan.off_palette}
    color_count = scan.slots_used(len(colors)) + len(off_palette)
    if color_count > len(s) + 1:
        problems.append(f"{color_count} colors used; at most {len(s) + 1} allowed")

    for level, (ks, core) in enumerate(zip(result.k_sets, cores)):
        if set(ks) != core:
            problems.append(f"level {level}: core set differs from the cores its shifts place")
    for i, j in combinations(range(len(result.k_sets)), 2):
        if result.k_sets[i] & result.k_sets[j]:
            problems.append(f"core sets of levels {i} and {j} intersect")

    # each zero edge marks slot 0 at both of its endpoints
    zero_edges = scan.seen[0::len(colors)].count(1) // 2
    return LayeredReport(not problems, tuple(problems), color_count, zero_edges)


# ---------------------------------------------------------------------------
# one-call pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineRun:
    genset: GeneratorSet
    dec: Decomposition
    result: LayeredResult
    report: LayeredReport


def run_pipeline(
    s: GeneratorSet,
    moduli: Sequence[int],
    d_override: Optional[int] = None,
) -> PipelineRun:
    """Decompose, model, tile, color and verify in one call.

    Every level gets the aligned tiling of ``plan_tilings``; to run on
    other tilings, call the stages one by one.
    """
    dec = decompose_with_constants(s)
    d = effective_d(dec, d_override)
    models = build_model(s, dec, moduli, d_override)
    tilings = plan_tilings(models, d)
    result = run_layered(s, dec, models, tilings)
    report = verify_layered(result, s, moduli)
    return PipelineRun(s, dec, result, report)
