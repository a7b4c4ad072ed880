"""Pattern, matching and chromatic-index witnesses."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chromatile.errors import InfeasibleError, InvalidInputError
from chromatile.grid import SchreierGraphView, Torus
from chromatile.lattice import GeneratorSet
from chromatile.lowerbound import (
    chromatic_index,
    has_perfect_matching,
    pattern_count,
    respects_matching,
    search_respecting_labelings,
)
from reference import (
    _edge_colorable,
    chromatic_index_by_search,
    edge_endpoints,
    edge_keys,
    matching_patterns,
    maximum_matching_size_exhaustive,
    neighbors,
    respects,
    vertices,
)
from reference import search_respecting_labelings as reference_search

S1 = GeneratorSet.standard(1)
S2 = GeneratorSet.standard(2)


class TestPatterns:
    def test_counts(self):
        assert pattern_count(S1) == len(matching_patterns(S1)) == 2
        assert pattern_count(S2) == len(matching_patterns(S2)) == 12
        s = GeneratorSet.from_vectors([(1,), (2,)])
        assert pattern_count(s) == len(matching_patterns(s)) == 12

    def test_one_dimensional_unfold(self):
        pats = matching_patterns(S1)
        labelled = {tuple(sorted(p.entries)) for p in pats}
        # going +1 must be answered by -1: forbidden to see +1 at both 0 and 1
        assert (((0,), (1,)), ((1,), (1,))) in labelled
        assert (((-1,), (-1,)), ((0,), (-1,))) in labelled

    def test_support_sizes(self):
        for p in matching_patterns(S2):
            assert len(p.support) == 2


class TestRespects:
    def test_alternating_ring(self):
        torus = Torus((4,))
        phi = {(0,): (1,), (1,): (-1,), (2,): (1,), (3,): (-1,)}
        assert respects(torus, phi, matching_patterns(S1), S1)
        assert respects_matching(torus, phi, S1)

    def test_constant_fails(self):
        torus = Torus((4,))
        phi = {(i,): (1,) for i in range(4)}
        assert not respects(torus, phi, matching_patterns(S1), S1)
        assert not respects_matching(torus, phi, S1)

    @pytest.mark.parametrize("labels", [
        [(3,), (3,), (3,), (-3,), (-3,), (-3,)],  # pairs x with x + 3
        [(7,), (-7,)] * 3,  # acts as the alternating ring, with labels not in S
    ])
    def test_labels_outside_s_fail(self, labels):
        torus = Torus((6,))
        phi = {(i,): g for i, g in enumerate(labels)}
        # every x satisfies phi(x + phi(x)) = -phi(x); only membership fails
        assert all(phi[torus.add(x, g)] == (-g[0],) for x, g in phi.items())
        assert not respects_matching(torus, phi, S1)

    def test_key_off_the_torus_rejected(self):
        phi = {(i,): (1,) if i % 2 == 0 else (-1,) for i in range(4)}
        with pytest.raises(InvalidInputError) as err:
            respects_matching(Torus((4,)), {**phi, (9,): (1,)}, S1)
        assert str(err.value) == "labeling labels (9,), not a torus vertex"
        with pytest.raises(InvalidInputError) as err:
            respects_matching(Torus((4,)), {(0,): (1,)}, S1)
        assert str(err.value) == "labeling misses vertex (1,)"

    def test_triangle_exhaustive(self):
        assert search_respecting_labelings(Torus((3,)), S1) == []

    def test_generic_and_fast_paths_agree(self):
        rng = random.Random(11)
        torus = Torus((4, 3))
        pats = matching_patterns(S2)
        members = sorted(S2.members)
        for _ in range(60):
            phi = {v: members[rng.randrange(4)] for v in torus.vertices()}
            assert respects(torus, phi, pats, S2) == respects_matching(torus, phi, S2)

    def test_small_moduli_rejected(self):
        with pytest.raises((InfeasibleError, InvalidInputError)):
            respects(Torus((1,)), {(0,): (1,)}, matching_patterns(S1), S1)
        with pytest.raises((InfeasibleError, InvalidInputError)):
            respects_matching(Torus((1,)), {(0,): (1,)}, S1)
        # +1 = -1 on a 2-ring: occurrence semantics degenerate
        with pytest.raises((InfeasibleError, InvalidInputError)):
            respects_matching(Torus((2,)), {(0,): (1,), (1,): (1,)}, S1)

    def test_every_found_labeling_induces_perfect_matching(self):
        torus = Torus((6,))
        for phi in search_respecting_labelings(torus, S1):
            # the edges {x, x + phi(x)} cover each vertex once: x's
            # partner is another vertex, whose partner is x
            partner = {x: torus.add(x, g) for x, g in phi.items()}
            assert all(partner[partner[x]] == x != partner[x] for x in partner)

    def test_search_matches_brute_force_enumeration(self):
        # independent oracle: enumerate every labeling and apply the
        # generic pattern checker; the backtracking search must agree
        from itertools import product as iproduct

        cases = [
            (Torus((4,)), S1),
            (Torus((5,)), S1),
            (Torus((6,)), S1),
            (Torus((6,)), GeneratorSet.from_vectors([(1,), (2,)])),
        ]
        for torus, s in cases:
            pats = matching_patterns(s)
            members = sorted(s.members)
            verts = sorted(torus.vertices())
            brute = 0
            for assignment in iproduct(members, repeat=len(verts)):
                if respects(torus, dict(zip(verts, assignment)), pats, s):
                    brute += 1
            found = search_respecting_labelings(torus, s)
            assert len(found) == brute
            for phi in found:
                assert list(phi) == verts
                assert respects(torus, phi, pats, s)

    def test_odd_small_tori_have_no_respecting_labelings(self):
        cases = [
            (Torus((3,)), S1),
            (Torus((5,)), S1),
            (Torus((7,)), S1),
            (Torus((9,)), S1),
            (Torus((3, 3)), S2),
            (Torus((5,)), GeneratorSet.from_vectors([(1,), (2,)])),
            (Torus((9,)), GeneratorSet.from_vectors([(1,), (2,)])),
        ]
        for torus, s in cases:
            assert search_respecting_labelings(torus, s, limit=1) == []

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, limit):
        # the 4-cycle has 2 respecting labelings; a limit of 0 would find none
        assert len(search_respecting_labelings(Torus((4,)), S1)) == 2
        with pytest.raises(InvalidInputError):
            search_respecting_labelings(Torus((4,)), S1, limit=limit)


@st.composite
def labeling_cases(draw):
    """A torus of n <= 2 axes and at most 16 vertices, a symmetric S of one or
    two residue pairs, and a limit that may be absent."""
    q1 = draw(st.integers(1, 16))
    moduli = (q1,) + tuple(draw(st.lists(st.integers(1, 16 // q1), max_size=1)))
    torus = Torus(moduli)
    neg = {x: torus.reduce(tuple(-c for c in x)) for x in torus.vertices()}
    reps = sorted({min(x, y) for x, y in neg.items() if x != y})
    assume(reps)
    chosen = draw(st.lists(st.sampled_from(reps), min_size=1, max_size=2, unique=True))
    limit = draw(st.none() | st.integers(1, 40))
    return torus, GeneratorSet.from_vectors(chosen), limit


class TestLabelingSearch:
    @settings(max_examples=150, deadline=None)
    @given(labeling_cases())
    def test_matches_reference(self, case):
        """The same labelings in the same order as the vertex-by-vertex
        backtracking, under any limit."""
        assert _found_or_error(search_respecting_labelings, case) == _found_or_error(
            reference_search, case)


def _found_or_error(search, case):
    try:
        return search(*case)
    except InfeasibleError as exc:
        return f"InfeasibleError: {exc}"


@st.composite
def schreier_views(draw, max_vertices, max_pairs=None):
    """A valid view on a torus of n <= 2 axes and at most ``max_vertices``
    vertices, with a random symmetric S of at most ``max_pairs`` pairs
    whose members are lifted off their residues, so coordinates may be
    negative or exceed q."""
    q1 = draw(st.integers(1, max_vertices))
    moduli = (q1,) + tuple(draw(st.lists(st.integers(1, max_vertices // q1), max_size=1)))
    torus = Torus(moduli)
    # one residue of each pair {x, -x}, leaving out x = -x, which the
    # view rejects as a doubled edge
    neg = {x: torus.reduce(tuple(-c for c in x)) for x in torus.vertices()}
    reps = sorted({min(x, y) for x, y in neg.items() if x != y})
    assume(reps)
    chosen = draw(st.lists(st.sampled_from(reps), min_size=1, max_size=max_pairs, unique=True))
    lifted = [tuple(c + q * draw(st.integers(-2, 1)) for c, q in zip(u, moduli)) for u in chosen]
    return SchreierGraphView(torus, GeneratorSet.from_vectors(lifted))


class TestMatchings:
    def test_parity_examples(self):
        assert not has_perfect_matching(SchreierGraphView(Torus((3,)), S1))
        assert has_perfect_matching(SchreierGraphView(Torus((4,)), S1))
        assert not has_perfect_matching(SchreierGraphView(Torus((3, 3)), S2))
        assert has_perfect_matching(SchreierGraphView(Torus((4, 4)), S2))

    @settings(max_examples=300, deadline=None)
    @given(schreier_views(16))
    def test_rule_and_exhaustive_agree(self, view):
        perfect = 2 * maximum_matching_size_exhaustive(view) == view.domain.vertex_count()
        assert has_perfect_matching(view) == perfect

    @settings(max_examples=200, deadline=None)
    @given(schreier_views(200))
    def test_found_has_alternating_cycle_matching(self, view):
        assume(has_perfect_matching(view))
        matchings = [m for u in view.generators if (m := _alternate_along(view, u))]
        assert matchings
        partner = matchings[0]
        # every vertex is covered exactly once, by a graph edge
        assert sorted(partner) == vertices(view)
        assert all(partner[partner[x]] == x for x in partner)
        assert all(partner[x] in neighbors(view, x) for x in partner)


def _alternate_along(view, u):
    """Pair every other vertex of each u-cycle with the next, as a map
    from each vertex to its partner; None when some u-cycle is odd."""
    partner, seen = {}, set()
    for start in vertices(view):
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = view.domain.add(x, u)
        if len(cycle) % 2:
            return None
        partner.update(zip(cycle[::2], cycle[1::2]))
        partner.update(zip(cycle[1::2], cycle[::2]))
    return partner


class TestChromaticIndex:
    def test_cycles(self):
        assert chromatic_index(SchreierGraphView(Torus((4,)), S1), 4) == 2
        assert chromatic_index(SchreierGraphView(Torus((3,)), S1), 4) == 3
        assert chromatic_index(SchreierGraphView(Torus((3,)), S1), 2) is None

    def test_small_tori(self):
        assert chromatic_index(SchreierGraphView(Torus((3, 3)), S2), 5) == 5
        assert chromatic_index(SchreierGraphView(Torus((4, 4)), S2), 5) == 4

    def test_even_tori_hit_degree(self):
        # a generator of even order gives the degree 2n, which the
        # parity certificate below attains
        assert chromatic_index(SchreierGraphView(Torus((4,)), S1), 3) == 2
        assert chromatic_index(SchreierGraphView(Torus((4, 4)), S2), 5) == 4

    def test_five_torus_needs_extra_color(self):
        # 25 vertices, 4-regular: a 4-coloring would split into perfect
        # matchings, impossible on odd order; the search finds a 5-coloring
        view = SchreierGraphView(Torus((5, 5)), S2)
        assert chromatic_index(view, 6) == 5 == chromatic_index_by_search(view, 6)
        assert chromatic_index(view, 4) is None

    def test_mixed_orders_hit_degree(self):
        # (1, 0) has even order 6 and (0, 1) odd order 5
        view = SchreierGraphView(Torus((6, 5)), S2)
        assert chromatic_index(view, 5) == 4 == chromatic_index_by_search(view, 5)

    def test_no_generators_no_colors(self):
        view = SchreierGraphView(Torus((4,)), GeneratorSet(1, frozenset()))
        assert chromatic_index(view, 1) == 0 == chromatic_index_by_search(view, 1)

    @settings(max_examples=300, deadline=None)
    @given(schreier_views(16, max_pairs=3), st.data())
    def test_rule_matches_search(self, view, data):
        """The parity rule gives the exact search's answer under any budget.

        Views stay at 16 vertices and 3 pairs, where the search takes
        milliseconds; K_9-like views of 20 vertices take it seconds."""
        k_max = data.draw(st.integers(1, len(view.generators) + 2))
        assert chromatic_index(view, k_max) == chromatic_index_by_search(view, k_max)

    @pytest.mark.parametrize(
        "moduli,s", [((3,), S1), ((5,), S1), ((3, 3), S2), ((3, 5), S2)]
    )
    def test_parity_rule_agrees_with_search(self, moduli, s):
        # odd order and regular: the search alone refutes k = degree,
        # and chromatic_index, which skips that search, lands one higher
        view = SchreierGraphView(Torus(moduli), s)
        edges = [edge_endpoints(view, key) for key in sorted(edge_keys(view))]
        incident = {}
        for i, (a, b) in enumerate(edges):
            incident.setdefault(a, []).append(i)
            incident.setdefault(b, []).append(i)
        degree = len(s)
        assert len(incident) % 2 == 1
        assert all(len(v) == degree for v in incident.values())
        assert not _edge_colorable(edges, incident, degree, incident[min(incident)])
        assert chromatic_index(view, degree + 2) == degree + 1

    def test_even_circulant(self):
        circ = SchreierGraphView(Torus((6,)), GeneratorSet.from_vectors([(1,), (2,)]))
        assert has_perfect_matching(circ)
        assert chromatic_index(circ, 6) == 4

    def test_parity_certificate_is_proper(self):
        # independent upper-bound certificate used to sanity-check the
        # rule on even tori: color {x, x+e_i} by (i, x_i mod 2)
        for moduli in [(4,), (4, 4), (6, 4)]:
            torus = Torus(moduli)
            s = GeneratorSet.standard(len(moduli))
            view = SchreierGraphView(torus, s)
            seen = {}
            for x, u in edge_keys(view):
                ax = u.index(1) + 1
                color = (ax, x[ax - 1] % 2)
                for v in (x, torus.add(x, u)):
                    assert (v, color) not in seen
                    seen[(v, color)] = True
