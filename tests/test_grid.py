"""Grid geometry against brute-force oracles."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromatile.errors import InvalidInputError
from chromatile.grid import (
    Box,
    SchreierGraphView,
    Torus,
    _box_index,
    _frame_index,
    adjacent_edges,
    edges_in,
)
from chromatile.lattice import GeneratorSet
from reference import contains, edge_keys, endpoints, neighbors, vertices


def halo_edges(box, margin=2):
    """Every edge whose base lies within a margin around the box."""
    lo = [b - margin for b in box.origin]
    hi = [b + a + margin for b, a in zip(box.origin, box.sizes)]
    for base in product(*[range(l, h + 1) for l, h in zip(lo, hi)]):
        for ax in range(1, box.n + 1):
            yield (base, ax)


def classify(box):
    """Oracle classification of halo edges by the definitions."""
    inner, adjacent = set(), set()
    for e in halo_edges(box):
        p, q = endpoints(e)
        inside = contains(box, p) + contains(box, q)
        if inside == 2:
            inner.add(e)
        elif inside == 1:
            adjacent.add(e)
    return inner, adjacent


def all_small_boxes():
    for n in (1, 2, 3):
        for sizes in product(range(1, 5), repeat=n):
            yield Box((0,) * n, sizes)


class TestEdgeSets:
    def test_against_oracle_sweep(self):
        for box in all_small_boxes():
            inner, adjacent = classify(box)
            assert set(edges_in(box)) == inner, box
            assert set(adjacent_edges(box)) == adjacent, box

    def test_counts(self):
        assert len(edges_in(Box((0,), (3,)))) == 3
        assert len(edges_in(Box((0, 0), (2, 2)))) == 12
        assert len(edges_in(Box((0, 0, 0), (2, 2, 2)))) == 54

        assert len(adjacent_edges(Box((0,), (1,)))) == 2
        assert len(adjacent_edges(Box((0, 0), (2, 2)))) == 12
        adj23 = adjacent_edges(Box((0, 0), (2, 3)))
        assert sum(1 for _, axis in adj23 if axis == 1) == 8
        assert sum(1 for _, axis in adj23 if axis == 2) == 6

    def test_count_formula(self):
        for box in all_small_boxes():
            expected = 0
            for i, a in enumerate(box.sizes):
                term = a
                for j, b in enumerate(box.sizes):
                    if j != i:
                        term *= b + 1
                expected += term
            assert len(edges_in(box)) == expected

    def test_adjacent_disjoint_from_inner_and_touches_once(self):
        for box in all_small_boxes():
            inner = set(edges_in(box))
            for e in adjacent_edges(box):
                assert e not in inner
                p, q = endpoints(e)
                assert contains(box, p) != contains(box, q)

    def test_parallel_adjacent_edges_never_share_vertices(self):
        for box in all_small_boxes():
            if any(a < 2 for a in box.sizes):
                continue
            by_axis = {}
            for e in adjacent_edges(box):
                by_axis.setdefault(e[1], []).append(e)
            for edges in by_axis.values():
                for i, e in enumerate(edges):
                    for f in edges[i + 1 :]:
                        assert not set(endpoints(e)) & set(endpoints(f))


class TestCore:
    def test_core_of_two_cube_is_itself(self):
        for n in (1, 2, 3):
            box = Box((0,) * n, (2,) * n)
            assert box.core() == box

    def test_centered_and_shifted(self):
        box = Box((0, 0), (6, 6))
        assert box.core() == Box((2, 2), (2, 2))
        assert box.shifted_core((2, -2)) == Box((4, 0), (2, 2))

    def test_errors(self):
        with pytest.raises(InvalidInputError):
            Box((0,), (3,)).core()
        with pytest.raises(InvalidInputError):
            Box((0, 0), (6, 6)).shifted_core((3, 0))
        with pytest.raises(InvalidInputError):
            Box((0, 0), (6, 6)).shifted_core((4, 0))

    def test_shifted_core_contained(self):
        box = Box((1, -3), (4, 6))
        for t1 in range(-1, 2):
            for t2 in range(-2, 3):
                core = box.shifted_core((t1, t2))
                assert all(contains(box, v) for v in core.vertices())


class TestSchreierAndDistance:
    def test_regularity(self):
        s = GeneratorSet.from_vectors([(1, 0), (1, 1)])
        view = SchreierGraphView(Torus((5, 5)), s)
        assert all(len(neighbors(view, x)) == 4 for x in vertices(view))

    def test_regularity_threshold(self):
        # moduli greater than twice the largest coordinate always give a
        # |S|-regular graph; here the bound is tight (max coord 2 -> 5)
        s = GeneratorSet.from_vectors([(1,), (2,)])
        view = SchreierGraphView(Torus((5,)), s)
        assert all(len(neighbors(view, x)) == 4 for x in vertices(view))

    def test_tiny_moduli_rejected(self):
        with pytest.raises(InvalidInputError):
            SchreierGraphView(Torus((2,)), GeneratorSet.standard(1))
        with pytest.raises(InvalidInputError):
            SchreierGraphView(Torus((2, 5)), GeneratorSet.standard(2))
        with pytest.raises(InvalidInputError):
            SchreierGraphView(Torus((4,)), GeneratorSet.from_vectors([(4,), (1,)]))

    def test_edge_keys_count(self):
        s = GeneratorSet.from_vectors([(1,), (2,)])
        view = SchreierGraphView(Torus((9,)), s)
        assert len(edge_keys(view)) == 9 * 2  # |S| * |T| / 2


@st.composite
def wrapped_boxes(draw):
    """Moduli, lows and radices of a box on a torus with n <= 3; lows may
    be negative and a side may span up to twice its modulus."""
    n = draw(st.integers(1, 3))
    moduli = draw(st.lists(st.integers(1, 7), min_size=n, max_size=n))
    lows = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    radices = [draw(st.integers(1, 2 * q)) for q in moduli]
    return moduli, lows, radices


class TestBoxIndex:
    @given(wrapped_boxes())
    @settings(max_examples=200, deadline=None)
    def test_against_reduce(self, case):
        moduli, lows, radices = case
        torus = Torus(tuple(moduli))
        index = _frame_index([0] * len(moduli), moduli)
        box = _frame_index(lows, radices)  # row-major, as dicts keep order
        assert _box_index(lows, radices, moduli) == [index[torus.reduce(v)] for v in box]
