"""Lattice algebra: HNF, independence, layering, constants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromatile.errors import InvalidInputError
from chromatile.lattice import (
    GeneratorSet,
    SubgroupBasis,
    decompose_with_constants,
    hermite_normal_form,
    integer_kernel,
    parse_generator_text,
    smallest_multiple_in,
    solve_integer_combination,
    vscale,
)
from reference import is_linearly_independent, lattice_contains
from reference import smallest_multiple_in as reference_smallest_multiple
from reference import solve_integer_combination as reference_solve

small_matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    min_size=1,
    max_size=4,
)


class TestHermiteNormalForm:
    @given(small_matrices)
    @settings(max_examples=200, deadline=None)
    def test_idempotent_and_spans_rows(self, rows):
        hnf = hermite_normal_form(rows)
        assert hermite_normal_form(hnf) == hnf
        for row in rows:
            assert lattice_contains(row, hnf)

    @given(small_matrices)
    @settings(max_examples=100, deadline=None)
    def test_hnf_rows_lie_in_original_span(self, rows):
        # mutual containment: the HNF spans exactly the original lattice
        hnf = hermite_normal_form(rows)
        # brute-force membership oracle over small coefficient combos is
        # expensive; instead reduce each HNF row against an HNF built
        # from the original rows (self-consistency both ways)
        back = hermite_normal_form(list(rows) + list(hnf))
        assert back == hnf

    def test_identity_detection(self):
        basis = SubgroupBasis.from_vectors(2, [(1, 0), (0, 1)])
        assert basis.is_full_integer_lattice()
        basis2 = SubgroupBasis.from_vectors(2, [(2, 0), (0, 1)])
        assert not basis2.is_full_integer_lattice()

    def test_membership(self):
        basis = SubgroupBasis.from_vectors(2, [(2, 0), (0, 2)])
        assert lattice_contains((4, -6), basis.basis)
        assert not lattice_contains((1, 0), basis.basis)
        assert lattice_contains((0, 0), basis.basis)

    def test_integer_kernel(self):
        # kernel of the 1x2 matrix [2 -4] is spanned by (2, 1)
        kern = integer_kernel([[2, -4]], 2)
        assert len(kern) == 1
        (v,) = kern
        assert 2 * v[0] - 4 * v[1] == 0
        assert math.gcd(v[0], v[1]) == 1


class TestSmallestMultiple:
    def test_examples(self):
        l1 = SubgroupBasis.from_vectors(2, [(2, 0), (0, 2)])
        assert smallest_multiple_in((1, 1), l1) == 2
        l2 = SubgroupBasis.from_vectors(1, [(1,)])
        assert smallest_multiple_in((2,), l2) == 1
        l3 = SubgroupBasis.from_vectors(1, [(6,)])
        assert smallest_multiple_in((4,), l3) == 3

    def test_outside_span_raises(self):
        l1 = SubgroupBasis.from_vectors(2, [(2, 0)])
        with pytest.raises(ValueError):
            smallest_multiple_in((0, 1), l1)


@st.composite
def solve_cases(draw):
    """Up to n vectors in Z^n, n <= 3, and a target: an arbitrary vector,
    mostly outside their span, or a combination of them, divided through
    when it can be, so that its coordinates need not be integers."""
    n = draw(st.integers(1, 3))
    vectors = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n), max_size=n))
    if draw(st.booleans()):
        return vectors, draw(st.tuples(*[st.integers(-9, 9)] * n))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(vectors), max_size=len(vectors)))
    target = [sum(c * v[t] for c, v in zip(coeffs, vectors)) for t in range(n)]
    den = draw(st.integers(1, 3))
    if all(x % den == 0 for x in target):
        target = [x // den for x in target]
    return vectors, tuple(target)


def _multiple_or_error(smallest, v, subgroup):
    try:
        return smallest(v, subgroup)
    except ValueError:
        return "ValueError"


class TestSolves:
    @given(solve_cases())
    @settings(max_examples=300, deadline=None)
    def test_match_rational_elimination(self, case):
        """The integer-kernel solves give the answers of Gaussian elimination
        over the rationals, inside and outside the span."""
        vectors, target = case
        assert solve_integer_combination(vectors, target) == reference_solve(vectors, target)
        subgroup = SubgroupBasis.from_vectors(len(target), vectors)
        assert _multiple_or_error(smallest_multiple_in, target, subgroup) == (
            _multiple_or_error(reference_smallest_multiple, target, subgroup))


class TestIndependence:
    def test_standard_basis(self):
        assert is_linearly_independent(GeneratorSet.standard(2))

    def test_one_dimensional_pair_fails(self):
        assert not is_linearly_independent(GeneratorSet.from_vectors([(1,), (2,)]))

    def test_rank_two_example(self):
        s = GeneratorSet.from_vectors([(2, 0), (1, 1)])
        assert is_linearly_independent(s)
        # oracle: 2x2 determinant of the representatives
        assert 2 * 1 - 0 * 1 != 0

    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_matches_definition_by_enumeration(self, vecs):
        vecs = [v for v in vecs if any(v)]
        if not vecs:
            return
        s = GeneratorSet.from_vectors(vecs)
        reps = s.pairs()
        # definition-based oracle: for each rep, does some nonzero multiple
        # land in the span of the others?  Search small multiples against
        # exact membership of the complementary subgroup.
        def dependent(i):
            others = [r for j, r in enumerate(reps) if j != i]
            sub = SubgroupBasis.from_vectors(s.dimension, others)
            for k in range(1, 40):
                if lattice_contains(vscale(k, reps[i]), sub.basis):
                    return True
            return False

        expected = not any(dependent(i) for i in range(len(reps)))
        assert is_linearly_independent(s) == expected


class TestDecompose:
    def test_standard_set_single_layer(self):
        dec = decompose_with_constants(GeneratorSet.standard(2))
        assert dec.level_count == 0
        assert dec.layers[0].pairs() == [(0, 1), (1, 0)]
        assert dec.k == ()

    def test_one_two(self):
        dec = decompose_with_constants(GeneratorSet.from_vectors([(1,), (2,)]))
        assert [layer.pairs() for layer in dec.layers] == [[(1,)], [(2,)]]
        assert dec.k == (1,)

    def test_diagonal_extra_generator(self):
        dec = decompose_with_constants(GeneratorSet.from_vectors([(1, 0), (0, 1), (1, 1)]))
        assert dec.layers[0].pairs() == [(0, 1), (1, 0)]
        assert dec.layers[1].pairs() == [(1, 1)]
        assert dec.k == (1,)

    def test_rejects_non_generating_set(self):
        with pytest.raises(InvalidInputError):
            decompose_with_constants(GeneratorSet.from_vectors([(2, 0), (0, 2)]))

    def test_deterministic(self):
        s = GeneratorSet.from_vectors([(1, 0), (0, 1), (1, 1), (2, 1)])
        assert decompose_with_constants(s) == decompose_with_constants(s)

    def test_layers_partition_and_are_symmetric(self):
        s = GeneratorSet.from_vectors([(1, 0), (0, 1), (1, 1), (3, 1)])
        dec = decompose_with_constants(s)
        members = set()
        for layer in dec.layers:
            assert is_linearly_independent(layer)
            for v in layer.members:
                assert v not in members
                members.add(v)
        assert members == set(s.members)

    def test_k_membership_and_minimality(self):
        s = GeneratorSet.from_vectors([(1, 0), (0, 1), (2, 2), (3, 3)])
        dec = decompose_with_constants(s)
        for i in range(1, dec.level_count + 1):
            prev = dec.layers[i - 1].subgroup().basis
            k_i = dec.k[i - 1]
            for v in dec.layer_reps(i):
                assert lattice_contains(vscale(k_i, v), prev)
            # minimality: dividing out any prime loses membership somewhere
            for p in range(2, k_i + 1):
                if k_i % p or not _is_prime(p):
                    continue
                smaller = k_i // p
                assert any(
                    not lattice_contains(vscale(smaller, v), prev) for v in dec.layer_reps(i)
                )


def _is_prime(p):
    return p > 1 and all(p % q for q in range(2, int(p**0.5) + 1))


class TestConstants:
    def test_one_two_constants(self):
        dec = decompose_with_constants(GeneratorSet.from_vectors([(1,), (2,)]))
        assert (dec.alpha, dec.beta, dec.gamma) == (3, 6, 6)
        assert dec.s == (2,) and dec.s_norm == 2
        assert dec.a_coeffs[1] == (6,)
        assert dec.d == 8 * 7 * 4 * 7 * 2 + 2 == 3138

    def test_standard_degenerate(self):
        dec = decompose_with_constants(GeneratorSet.standard(2))
        assert (dec.alpha, dec.beta, dec.gamma) == (0, 6, 0)
        assert dec.s == (0, 1) and dec.s_norm == 1
        assert dec.d == 8 * 1 * 1 * 7 * 1 + 2 == 58

    def test_diagonal_constants(self):
        dec = decompose_with_constants(
            GeneratorSet.from_vectors([(1, 0), (0, 1), (1, 1)])
        )
        assert dec.alpha == 9 and dec.beta == 6
        assert dec.s == (1, 1) and dec.s_norm == 2
        assert dec.a_coeffs[1] == (6,)
        assert dec.gamma == 6
        assert dec.d % 4 == 2

    def test_decomposition_is_hashable(self):
        dec = decompose_with_constants(GeneratorSet.standard(2))
        again = decompose_with_constants(GeneratorSet.standard(2))
        assert dec == again and hash(dec) == hash(again)
        diag = decompose_with_constants(GeneratorSet.from_vectors([(1, 0), (0, 1), (1, 1)]))
        assert len({dec, again, diag}) == 2
        assert diag.a_coeffs == ((6, 6), (6,))  # indexed by level

    @pytest.mark.parametrize(
        "vectors",
        [
            [(1,), (2,)],
            [(1, 0), (0, 1), (1, 1)],
            [(1, 0), (0, 1), (2, 2), (3, 3)],
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        ],
    )
    def test_invariants(self, vectors):
        s = GeneratorSet.from_vectors(vectors)
        dec = decompose_with_constants(s)
        beta_s = vscale(dec.beta, dec.s)
        for i in range(dec.level_count + 1):
            # membership chain: beta*s inside every layer subgroup
            assert lattice_contains(beta_s, dec.layers[i].subgroup().basis)
            # recorded coordinates reproduce beta*s and are even
            reps = dec.layer_reps(i)
            acc = (0,) * s.dimension
            for a, e in zip(dec.a_coeffs[i], reps):
                acc = tuple(x + a * y for x, y in zip(acc, e))
            assert acc == beta_s
            assert all(a % 2 == 0 for a in dec.a_coeffs[i])
        assert dec.d % 4 == 2
        assert dec.d > 4 * 2 * dec.gamma * dec.alpha * dec.beta * dec.s_norm


class TestParsing:
    def test_roundtrip_and_symmetrize(self):
        s = parse_generator_text("n=2\n1,0\n0,1\n")
        assert s == GeneratorSet.standard(2)

    def test_asymmetric_rejected_when_strict(self):
        with pytest.raises(InvalidInputError):
            parse_generator_text("n=1\n1\n", symmetrize=False)
        ok = parse_generator_text("n=1\n1\n-1\n", symmetrize=False)
        assert ok == GeneratorSet.standard(1)

    def test_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            parse_generator_text("1,0\n")
        with pytest.raises(InvalidInputError):
            parse_generator_text("n=2\n1\n")
        with pytest.raises(InvalidInputError):
            parse_generator_text("n=2\n0,0\n")
