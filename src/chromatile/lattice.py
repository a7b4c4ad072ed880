"""Integer-lattice algebra over Z^n.

Everything here is exact integer arithmetic on tuples of Python ints,
so there is no overflow to worry about: the marker distance ``d``
produced by :func:`decompose_with_constants` easily exceeds 64 bits for
large generating sets.

The central objects are symmetric generating sets of Z^n and their
greedy decomposition into layers, where each layer is a maximal
"independent" subset of what remains.  A symmetric set S is independent
when for every s in S the cyclic group <s> meets <S \\ {s,-s}> only in
the zero vector; for torsion-free Z^n this is equivalent to the lex
positive representatives of the +/- pairs being linearly independent
over Q, which is how :func:`decompose_with_constants` decides it (a
rational dependence scales to an integer relation and conversely).

Every question rests on the Hermite normal form.  Ranks come from its
row count, and the two solves -- the least multiple of a vector inside
a subgroup, and the coordinates of a vector in an independent basis --
read their answer off the one primitive relation that
:func:`integer_kernel` finds among the columns (basis..., v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InvalidInputError, VerificationError

Vector = tuple[int, ...]


# ---------------------------------------------------------------------------
# elementary vector helpers
# ---------------------------------------------------------------------------

def fmt_vec(v: Vector) -> str:
    return ",".join(str(x) for x in v)


def parse_vec(text: str) -> Vector:
    """A vector of comma-separated integers; InvalidInputError otherwise."""
    try:
        return tuple(map(int, text.split(",")))
    except ValueError as exc:
        raise InvalidInputError(f"bad vector {text.strip()!r}") from exc


def vneg(v: Vector) -> Vector:
    return tuple(-x for x in v)


def vscale(k: int, v: Vector) -> Vector:
    return tuple(k * x for x in v)


def is_lex_positive(v: Vector) -> bool:
    """True when the first nonzero coordinate is positive."""
    for x in v:
        if x:
            return x > 0
    return False


def canonical_rep(v: Vector) -> Vector:
    """Lex positive representative of the pair {v, -v}."""
    return v if is_lex_positive(v) else vneg(v)


def one_norm(v: Vector) -> int:
    return sum(abs(x) for x in v)


# ---------------------------------------------------------------------------
# Hermite normal form and lattice queries
# ---------------------------------------------------------------------------

def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _pivot_col(row: Sequence[int]) -> int:
    for i, x in enumerate(row):
        if x:
            return i
    return -1


def hermite_normal_form(rows: Iterable[Sequence[int]]) -> list[Vector]:
    """Row-style HNF of the lattice spanned by ``rows``.

    The result is canonical: rows sorted by pivot column, pivots
    positive, entries above each pivot reduced into [0, pivot).  The
    spanned lattice is unchanged, and the map is idempotent.
    """
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return []
    width = len(mat[0])
    if any(len(r) != width for r in mat):
        raise InvalidInputError("rows of differing length in lattice basis")

    by_pivot: dict[int, list[int]] = {}
    for incoming in mat:
        v = incoming
        while True:
            c = _pivot_col(v)
            if c < 0:
                break
            if c not in by_pivot:
                if v[c] < 0:
                    v = [-x for x in v]
                by_pivot[c] = v
                break
            u = by_pivot[c]
            g, x, y = _ext_gcd(u[c], v[c])
            uc, vc = u[c] // g, v[c] // g
            by_pivot[c] = [x * a + y * b for a, b in zip(u, v)]
            v = [uc * b - vc * a for a, b in zip(u, v)]

    basis = [by_pivot[c] for c in sorted(by_pivot)]
    # reduce entries above each pivot
    for j in range(len(basis)):
        cj = _pivot_col(basis[j])
        pj = basis[j][cj]
        for i in range(j):
            q = basis[i][cj] // pj
            if q:
                basis[i] = [a - q * b for a, b in zip(basis[i], basis[j])]
    return [tuple(r) for r in basis]


def lattice_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over Q of the span of ``rows`` (= rank of the lattice)."""
    return len(hermite_normal_form(rows))


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[Vector]:
    """Basis of {x in Z^ncols : M x = 0} for the matrix M given by ``rows``.

    Uses the classic augmented-HNF trick: row reduce [M^T | I]; rows of
    the result whose M^T block vanished have identity blocks spanning
    the kernel lattice.
    """
    m = len(rows)
    aug = []
    for j in range(ncols):
        left = [rows[i][j] for i in range(m)]
        right = [1 if t == j else 0 for t in range(ncols)]
        aug.append(left + right)
    reduced = hermite_normal_form(aug)
    kernel = [row[m:] for row in reduced if not any(row[:m])]
    return [tuple(r) for r in kernel]


@dataclass(frozen=True)
class SubgroupBasis:
    """A subgroup of Z^n held in canonical (row HNF) form."""

    dimension: int
    basis: tuple[Vector, ...]

    @classmethod
    def from_vectors(cls, dimension: int, vectors: Iterable[Vector]) -> "SubgroupBasis":
        vecs = list(vectors)
        for v in vecs:
            if len(v) != dimension:
                raise InvalidInputError("vector dimension mismatch in subgroup basis")
        return cls(dimension, tuple(hermite_normal_form(vecs)))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def is_full_integer_lattice(self) -> bool:
        if self.rank != self.dimension:
            return False
        ident = tuple(
            tuple(1 if i == j else 0 for j in range(self.dimension))
            for i in range(self.dimension)
        )
        return self.basis == ident


def _relation(vectors: Sequence[Vector], v: Vector) -> Optional[Vector]:
    """The integer relations x with sum_j x_j * vectors[j] + x_last * v = 0,
    when they are the multiples of one primitive x; None otherwise."""
    rows = [[u[r] for u in vectors] + [v[r]] for r in range(len(v))]
    kernel = integer_kernel(rows, len(vectors) + 1)
    return kernel[0] if len(kernel) == 1 else None


def solve_integer_combination(
    vectors: Sequence[Vector], target: Vector
) -> Optional[tuple[int, ...]]:
    """Solve target = sum a_j * vectors[j] exactly over Z.

    The relations among the columns (vectors..., target) are the
    multiples of one primitive x exactly when the vectors are
    independent and the target lies in their rational span; an integer
    solution exists exactly when x ends in +-1, and then it is unique.
    Returns None otherwise, dependent vectors included.
    """
    x = _relation(vectors, target)
    if x is None or abs(x[-1]) != 1:
        return None
    return tuple(-x[-1] * a for a in x[:-1])


def smallest_multiple_in(v: Vector, subgroup: SubgroupBasis) -> int:
    """Least k > 0 with k*v in the subgroup.

    k*v lies in the subgroup exactly when (-a, k) is a relation among
    the columns (basis..., v).  The HNF rows are independent, so such
    relations exist exactly when v lies in the rational span, and k is
    the last entry of the primitive one, up to sign.  Outside the span
    points to a broken layer decomposition upstream, so it raises.
    """
    x = _relation(subgroup.basis, v)
    if x is None:
        raise ValueError(f"{v} lies outside the rational span of the subgroup")
    return abs(x[-1])


# ---------------------------------------------------------------------------
# generating sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSet:
    """A finite symmetric subset of Z^n not containing the identity."""

    dimension: int
    members: frozenset[Vector]

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise InvalidInputError("dimension must be >= 1")
        for v in self.members:
            if len(v) != self.dimension:
                raise InvalidInputError(f"member {v} has wrong dimension")
            if not any(v):
                raise InvalidInputError("identity element not allowed in a generating set")
            if vneg(v) not in self.members:
                raise InvalidInputError(f"set is not symmetric: missing {vneg(v)}")

    @classmethod
    def from_vectors(
        cls, vectors: Iterable[Sequence[int]], *, symmetrize: bool = True
    ) -> "GeneratorSet":
        vecs = [tuple(int(x) for x in v) for v in vectors]
        if not vecs:
            raise InvalidInputError("empty generating set")
        dim = len(vecs[0])
        members = set(vecs)
        closure = members | {vneg(v) for v in members}
        if not symmetrize and closure != members:
            raise InvalidInputError("input set is not symmetric and symmetrization is off")
        return cls(dim, frozenset(closure))

    @classmethod
    def standard(cls, n: int) -> "GeneratorSet":
        units = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        return cls.from_vectors(units)

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def pairs(self) -> list[Vector]:
        """Lex positive representatives of the +/- pairs, sorted lexicographically."""
        return sorted({canonical_rep(v) for v in self.members})

    def subgroup(self) -> SubgroupBasis:
        return SubgroupBasis.from_vectors(self.dimension, self.pairs())

    def generates_full_lattice(self) -> bool:
        return self.subgroup().is_full_integer_lattice()


# ---------------------------------------------------------------------------
# decomposition into layers and the derived constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """Layering S = S_0 u ... u S_m plus the constants driving colorings.

    ``k[i-1]`` is the least k > 0 with k*<S_i> inside <S_{i-1}>.  Only
    :func:`decompose_with_constants` builds one, with every constant set:

    * ``beta * s`` lies in <S_i> for every level i, and ``a_coeffs[i]``
      are its exact integer coordinates in the ordered basis of layer i.
      They are always even: beta*s = 2*(3*prod(k)*s) and 3*prod(k)*s is
      itself a member of <S_i> by the divisibility chain through the
      k's, so each coordinate doubles an integer.
    * ``d`` = 8*(gamma+1)*(alpha+1)*(beta+1)*|s| + 2, hence always
      congruent to 2 mod 4.
    """

    dimension: int
    layers: tuple[GeneratorSet, ...]
    k: tuple[int, ...]
    alpha: int
    beta: int
    gamma: int
    s: Vector
    s_norm: int
    d: int
    a_coeffs: tuple[tuple[int, ...], ...]  # indexed by level

    @property
    def level_count(self) -> int:
        """m, the index of the last layer."""
        return len(self.layers) - 1

    def layer_reps(self, i: int) -> list[Vector]:
        """Ordered basis of layer i (lex order, which is insertion order)."""
        return self.layers[i].pairs()


def _layering(s: GeneratorSet) -> tuple[list[GeneratorSet], list[int]]:
    """Greedy deterministic layering of a generating set of Z^n, and its k's.

    Pairs are scanned in lex order of their canonical representative; a
    pair joins the current layer when the layer stays independent.  Each
    layer is maximal before the next one starts, so every leftover pair
    is rationally dependent on every completed layer.
    """
    if not s.generates_full_lattice():
        raise InvalidInputError(
            "generating set does not generate Z^n (HNF is not the identity lattice)"
        )
    remaining = s.pairs()
    layers: list[GeneratorSet] = []
    while remaining:
        layer: list[Vector] = []
        deferred: list[Vector] = []
        for v in remaining:
            if lattice_rank(layer + [v]) == len(layer) + 1:
                layer.append(v)
            else:
                deferred.append(v)
        layers.append(GeneratorSet.from_vectors(layer))
        remaining = deferred
    if len(layers[0].pairs()) != s.dimension:
        raise VerificationError("first layer must have rank n")

    ks: list[int] = []
    for i in range(1, len(layers)):
        prev = layers[i - 1].subgroup()
        k_i = 1
        for v in layers[i].pairs():
            kv = smallest_multiple_in(v, prev)
            k_i = k_i * kv // math.gcd(k_i, kv)
        ks.append(k_i)
    return layers, ks


def decompose_with_constants(s: GeneratorSet) -> Decomposition:
    """The layering of s with alpha, beta, gamma, s, d and the shift coordinates.

    s is the lex smallest canonical representative in the last layer.
    For m = 0 the constants degenerate to alpha=0, beta=6, gamma=0 so
    downstream code keeps a single path.
    """
    layers, ks = _layering(s)
    n = s.dimension
    m = len(layers) - 1
    beta = 6 * math.prod(ks)
    alpha = (3 ** n) * m
    s_vec = layers[m].pairs()[0]
    s_norm = one_norm(s_vec)

    beta_s = vscale(beta, s_vec)
    a_coeffs: list[tuple[int, ...]] = []
    for i, layer in enumerate(layers):
        sol = solve_integer_combination(layer.pairs(), beta_s)
        if sol is None:
            raise ValueError(
                f"no integer expansion of beta*s in layer {i}: decomposition invariant broken"
            )
        if any(a % 2 for a in sol):
            raise VerificationError("beta*s coordinates must all be even")
        a_coeffs.append(sol)

    gamma = max((abs(a) for i in range(1, m + 1) for a in a_coeffs[i]), default=0)
    d = 4 * 2 * (gamma + 1) * (alpha + 1) * (beta + 1) * s_norm + 2
    if d % 4 != 2:
        raise VerificationError(f"marker distance {d} is not congruent to 2 mod 4")
    return Decomposition(
        n, tuple(layers), tuple(ks), alpha, beta, gamma, s_vec, s_norm, d, tuple(a_coeffs)
    )


# ---------------------------------------------------------------------------
# textual input format
# ---------------------------------------------------------------------------

def parse_generator_text(text: str, *, symmetrize: bool = True) -> GeneratorSet:
    """Parse the generating-set format.

    First non-blank line is ``n=<dim>``; every further non-blank,
    non-comment line is one vector of comma separated integers.  Only
    one of v, -v needs to be listed; with ``symmetrize=False`` an input
    that is not already closed under negation is rejected.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].replace(" ", "").startswith("n="):
        raise InvalidInputError("generating-set file must start with 'n=<dim>'")
    try:
        dim = int(lines[0].split("=", 1)[1])
    except ValueError as exc:
        raise InvalidInputError(f"bad dimension line: {lines[0]!r}") from exc
    vectors = []
    for ln in lines[1:]:
        vec = parse_vec(ln)
        if len(vec) != dim:
            raise InvalidInputError(f"vector {vec} does not have dimension {dim}")
        vectors.append(vec)
    if not vectors:
        raise InvalidInputError("no vectors in generating-set file")
    return GeneratorSet.from_vectors(vectors, symmetrize=symmetrize)


def load_generator_file(path: str, *, symmetrize: bool = True) -> GeneratorSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_generator_text(fh.read(), symmetrize=symmetrize)
