"""Finite lower-bound witnesses: forbidden patterns, matchings, chi'.

A proper |S|-edge-coloring of an |S|-regular graph splits into perfect
matchings, one per color.  A labeling phi of a torus by generators, a
plain {vertex: generator} dict, induces the edge set {x, phi(x).x}; it
is a perfect matching exactly when phi avoids the 2m(2m-1) two-point
patterns that pair a step u_i with a wrong return step.  So the
labeling search enumerates perfect matchings of the Schreier graph
directly.  Odd tori have no perfect matching at all, so exhaustive
pattern searches on them come up empty and their chromatic index
exceeds the degree.

Whether a torus has a perfect matching at all follows from the orders
of the generators, with no graph search, and so does the chromatic
index: the parity rule gives |S| colors when some generator has even
order and |S| + 1 when none has.
"""

from __future__ import annotations

from math import gcd
from typing import Optional

from .errors import InfeasibleError, InvalidInputError
from .grid import SchreierGraphView, Torus, Vertex
from .lattice import GeneratorSet, Vector, vneg


# ---------------------------------------------------------------------------
# patterns and torus labelings
# ---------------------------------------------------------------------------

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


def respects_matching(torus: Torus, phi: dict[Vertex, Vector], s: GeneratorSet) -> bool:
    """True when every label is a member of S and the labeling avoids
    every matching pattern: for every x, phi(x + phi(x)) = -phi(x).

    A labeling that misses a torus vertex, or labels a point that is not
    one, is rejected as invalid input.
    """
    missing = [v for v in torus.vertices() if v not in phi]
    if missing:
        raise InvalidInputError(f"labeling misses vertex {missing[0]}")
    off = [v for v in phi if torus.reduce(v) != v]
    if off:
        raise InvalidInputError(f"labeling labels {off[0]}, not a torus vertex")
    _check_moduli(torus, s)
    return s.members.issuperset(phi.values()) and all(
        phi[torus.add(x, g)] == vneg(g) for x, g in phi.items())


def search_respecting_labelings(
    torus: Torus, s: GeneratorSet, limit: Optional[int] = None
) -> list[dict[Vertex, Vector]]:
    """Every labeling that respects the patterns, in lex order, each a
    {vertex: generator} dict in sorted vertex order.

    Such a labeling is a perfect matching, each edge {v, v + g} labelled
    g at v and -g at v + g.  The search matches the least unmatched v to
    each unmatched v + g, g in sorted order, keeping the matched pairs on
    an explicit stack, so its depth is not bounded by Python's recursion
    limit.  It is exact, so an empty result is a proof of nonexistence.
    A ``limit`` below 1 is rejected, since it would stop before the first
    labeling and look like such a proof.
    """
    if limit is not None and limit < 1:
        raise InvalidInputError(f"limit must be >= 1, got {limit}")
    _check_moduli(torus, s)
    vertices = sorted(torus.vertices())
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    # per vertex: (g, -g, index of v + g), g in sorted order; none past
    # the last vertex, where a complete labeling backtracks once recorded
    moves = [[(g, vneg(g), index[torus.add(v, g)]) for g in s] for v in vertices] + [[]]
    label: list[Optional[Vector]] = [None] * n
    found: list[dict[Vertex, Vector]] = []
    path: list = []  # (vertex, its untried moves, partner) of every matched pair
    i, untried = 0, iter(moves[0])
    while True:
        if i == n:
            found.append(dict(zip(vertices, label)))
            if limit is not None and len(found) >= limit:
                break
        for g, h, j in untried:
            if label[j] is None:
                label[i], label[j] = g, h
                path.append((i, untried, j))
                i += 1
                while i < n and label[i] is not None:
                    i += 1
                untried = iter(moves[i])
                break
        else:
            if not path:
                break
            i, untried, j = path.pop()
            label[i] = label[j] = None
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
# chromatic index
# ---------------------------------------------------------------------------

def chromatic_index(view: SchreierGraphView, k_max: int) -> Optional[int]:
    """The chromatic index chi' of the Schreier graph if it is at most
    k_max, else None.

    The graph is simple and |S|-regular, and each of its components is a
    Cayley graph of the abelian group <S>, so no search is needed:

    * chi' = |S| when ``has_perfect_matching`` finds some generator of
      even order.  Then <S> has even order, and Cayley graphs of abelian
      groups of even order are 1-factorizable (Stong, *On
      1-factorizability of Cayley graphs*, JCTB 39, 1985).
    * chi' = |S| + 1 otherwise.  Every component is regular of odd order,
      so no color class of an |S|-coloring can be a perfect matching,
      and Vizing's theorem gives a coloring with |S| + 1 colors.

    With no generators the graph has no edges and chi' is 0.
    """
    degree = len(view.generators)
    chi = degree if not degree or has_perfect_matching(view) else degree + 1
    return chi if chi <= k_max else None
