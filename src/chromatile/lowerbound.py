"""Finite lower-bound witnesses: forbidden patterns, matchings, chi'.

A proper |S|-edge-coloring of an |S|-regular graph splits into perfect
matchings, one per color.  A labeling phi of a torus by generators
induces the edge set {x, phi(x).x}; it is a perfect matching exactly
when phi avoids the 2m(2m-1) two-point patterns that pair a step u_i
with a wrong return step.  So the labeling search enumerates perfect
matchings of the Schreier graph directly.  Odd tori have no perfect
matching at all, so exhaustive pattern searches on them come up empty
and their chromatic index exceeds the degree.

Whether a torus has a perfect matching at all follows from the orders
of the generators, with no graph search.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional

from .errors import InfeasibleError, InvalidInputError
from .grid import SchreierGraphView, Torus, Vertex
from .lattice import GeneratorSet, Vector, vneg


# ---------------------------------------------------------------------------
# patterns and torus labelings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusLabeling:
    """A total map from torus vertices to generators."""

    torus: Torus
    phi: tuple[tuple[Vertex, Vector], ...]  # sorted (vertex, generator)

    @classmethod
    def from_map(cls, torus: Torus, phi: dict[Vertex, Vector]) -> "TorusLabeling":
        missing = [v for v in torus.vertices() if v not in phi]
        if missing:
            raise InvalidInputError(f"labeling misses vertex {missing[0]}")
        off = [v for v in phi if torus.reduce(v) != v]
        if off:
            raise InvalidInputError(f"labeling labels {off[0]}, not a torus vertex")
        return cls(torus, tuple(sorted(phi.items())))

    def mapping(self) -> dict[Vertex, Vector]:
        return dict(self.phi)


def pattern_count(s: GeneratorSet) -> int:
    """How many two-point patterns a matching labeling avoids: one per
    ordered pair (u_i, u_j), i != j, putting u_i at the origin and -u_j
    at u_i."""
    return len(s) * (len(s) - 1)


def _check_moduli(torus: Torus, s: GeneratorSet) -> None:
    # every pattern's support is {0, u} for a generator u
    max_coord = max((abs(x) for u in s for x in u), default=0)
    if any(q <= max_coord for q in torus.moduli):
        raise InfeasibleError(
            f"moduli {torus.moduli} too small: pattern supports reach {max_coord}"
        )
    # distinct generators must stay distinct on the torus, else the
    # occurrence semantics degenerate
    SchreierGraphView(torus, s)


def respects_matching(labeling: TorusLabeling, s: GeneratorSet) -> bool:
    """True when every label is a member of S and the labeling avoids
    every matching pattern: for every x, phi(x + phi(x)) = -phi(x)."""
    torus = labeling.torus
    _check_moduli(torus, s)
    phi = labeling.mapping()
    return s.members.issuperset(phi.values()) and all(
        phi[torus.add(x, g)] == vneg(g) for x, g in phi.items())


def search_respecting_labelings(
    torus: Torus, s: GeneratorSet, limit: Optional[int] = None
) -> list[TorusLabeling]:
    """Every labeling that respects the patterns, in lex order.

    Such a labeling is a perfect matching, each edge {v, v + g} labelled
    g at v and -g at v + g.  The search matches the least unmatched v to
    each unmatched v + g, g in sorted order.  It is exact, so an empty
    result is a proof of nonexistence.  A ``limit`` below 1 is rejected,
    since it would stop before the first labeling and look like such a
    proof.
    """
    if limit is not None and limit < 1:
        raise InvalidInputError(f"limit must be >= 1, got {limit}")
    _check_moduli(torus, s)
    vertices = sorted(torus.vertices())
    index = {v: i for i, v in enumerate(vertices)}
    # per vertex: (g, -g, index of v + g), g in sorted order
    moves = [[(g, vneg(g), index[torus.add(v, g)]) for g in s] for v in vertices]
    label: list[Optional[Vector]] = [None] * len(vertices)
    found: list[TorusLabeling] = []

    def rec(i: int) -> bool:
        while i < len(label) and label[i] is not None:
            i += 1
        if i == len(label):
            found.append(TorusLabeling(torus, tuple(zip(vertices, label))))
            return limit is not None and len(found) >= limit
        for g, h, j in moves[i]:
            if label[j] is None:
                label[i], label[j] = g, h
                if rec(i + 1):
                    return True
                label[j] = None
        label[i] = None
        return False

    rec(0)
    return found


# ---------------------------------------------------------------------------
# perfect matchings
# ---------------------------------------------------------------------------

def has_perfect_matching(view: SchreierGraphView) -> bool:
    """Whether the Schreier graph has a perfect matching.

    The graph is the Cayley graph of the torus with generators S, so a
    generator u splits the vertices into cycles of its order, the lcm
    over axes of q_i / gcd(u_i, q_i).  A perfect matching exists exactly
    when some u in S has even order, that is when q_i / gcd(u_i, q_i) is
    even on some axis i.

    * Found: every u-cycle has even length, so alternate u-edges match
      every vertex.
    * None: every generator has odd order.  Then <S> has odd order,
      every component is an odd coset, and no perfect matching exists.
    """
    return any(
        (q // gcd(x, q)) % 2 == 0
        for u in view.generators
        for x, q in zip(u, view.domain.moduli)
    )


# ---------------------------------------------------------------------------
# exact chromatic index
# ---------------------------------------------------------------------------

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


def chromatic_index(view: SchreierGraphView, k_max: int) -> Optional[int]:
    """Least k <= k_max admitting a proper edge k-coloring, else None.

    Exact backtracking search starting at the maximum degree, with the
    colors around one vertex pinned to break color symmetry.  A regular
    graph of odd order starts one higher: each color class of a
    max-degree coloring would be a perfect matching.
    """
    keys = view.edge_keys()
    edges = [view.edge_endpoints(key) for key in sorted(keys)]
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
