"""Brute-force references that the tests hold the package's checks against.

Each one reads a definition literally and makes no claim to speed:

* ``verify_proper``: properness of any set of grid-edge keys, the
  generic form of what the one-pass verifiers check on their own edge
  sets;
* ``SftPattern``, ``matching_patterns`` and ``respects``: forbidden
  patterns on arbitrary finite supports, the generic form of
  ``respects_matching``;
* ``maximum_matching_size_exhaustive``: branch-and-memoize maximum
  matching, the reference for networkx's blossom algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from chromatile.errors import InfeasibleError, InvalidInputError
from chromatile.grid import SchreierGraphView, Vertex
from chromatile.lattice import GeneratorSet, Vector, vneg
from chromatile.lowerbound import TorusLabeling
from chromatile.rectcolor import EdgeColoring


def verify_proper(coloring: EdgeColoring) -> bool:
    """No two colored edges sharing a vertex carry the same color."""
    at_vertex: dict[Vertex, set] = {}
    for edge, color in coloring.items():
        for v in edge.endpoints():
            bucket = at_vertex.setdefault(v, set())
            if color in bucket:
                return False
            bucket.add(color)
    return True


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
    labeling: TorusLabeling, patterns: Sequence[SftPattern], s: GeneratorSet
) -> bool:
    """True when no pattern occurs in the periodic pullback of the labeling.

    A pattern occurs at a torus point v when every support point f
    satisfies phi((v + f) mod q) = label(f).  Moduli no larger than the
    supports' reach, or that merge generators, are rejected.
    """
    torus = labeling.torus
    reach = max((abs(x) for p in patterns for point in p.support for x in point), default=0)
    if any(q <= reach for q in torus.moduli):
        raise InfeasibleError(f"moduli {torus.moduli} too small: pattern supports reach {reach}")
    SchreierGraphView(torus, s)
    phi = labeling.mapping()
    for pattern in patterns:
        for v in torus.vertices():
            if all(phi[torus.add(v, f)] == lab for f, lab in pattern.entries):
                return False
    return True


def maximum_matching_size_exhaustive(view: SchreierGraphView) -> int:
    """Branch-and-memoize maximum matching; exact, for tiny graphs only."""
    vertices = view.vertices()
    if len(vertices) > 16:
        raise InvalidInputError("exhaustive matching is limited to 16 vertices")
    index = {v: i for i, v in enumerate(vertices)}
    adj = [sorted(index[w] for w in view.neighbors(v)) for v in vertices]

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

    return best(frozenset(range(len(vertices))))
