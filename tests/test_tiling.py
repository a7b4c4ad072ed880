"""Brick tilings and the global torus colorer."""

import pytest

from chromatile.errors import ColorConflictError, InfeasibleError, InvalidInputError
from chromatile.grid import Box, Torus, adjacent_edges, edges_in
from chromatile.rectcolor import (
    C,
    P,
    color_bc1,
    color_bc2,
    color_shifted_core,
    palette,
)
from chromatile.tiling import (
    Tiling,
    brick_tiling,
    color_tiling,
    first_odd_axis,
    is_all_even,
    local_edges,
    segment_lengths,
    validate_tiling,
    verify_tiling_coloring,
)
from reference import allowed_core_edges, placed


class TestSegments:
    def test_examples(self):
        assert segment_lengths(6, 6) == [6]
        assert segment_lengths(13, 6) == [6, 7]
        assert segment_lengths(7, 3) == [3, 4]
        assert segment_lengths(12, 6) == [6, 6]
        assert segment_lengths(7, 6) == [7]

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            segment_lengths(5, 6)
        with pytest.raises(InfeasibleError):
            segment_lengths(2, 3)

    def test_partition_property(self):
        for d in (2, 3, 6):
            for q in range(d, 40):
                try:
                    parts = segment_lengths(q, d)
                except InfeasibleError:
                    continue
                assert sum(parts) == q
                assert set(parts) <= {d, d + 1}


class TestBrickTiling:
    def test_single_region(self):
        tiling = brick_tiling(Torus((6,)), 6)
        assert len(tiling.regions) == 1
        assert tiling.regions[0] == Box((0,), (5,))
        assert validate_tiling(tiling).ok

    def test_thirteen(self):
        tiling = brick_tiling(Torus((13,)), 6)
        assert sorted(r.sizes[0] + 1 for r in tiling.regions) == [6, 7]
        assert validate_tiling(tiling).ok

    def test_brick_offsets(self):
        tiling = brick_tiling(Torus((13, 13)), 6, offsets=(0, 3))
        assert len(tiling.regions) == 4
        assert validate_tiling(tiling).ok

    def test_seeded(self):
        a = brick_tiling(Torus((20, 20)), 6, seed=7)
        b = brick_tiling(Torus((20, 20)), 6, seed=7)
        assert a == b and validate_tiling(a).ok

    def test_validate_negatives(self):
        torus = Torus((12,))
        overlapping = Tiling(torus, (Box((0,), (5,)), Box((5,), (6,))), 6)
        assert validate_tiling(overlapping).problems == (
            "vertex (5,) covered by two regions",
        )
        missing = Tiling(torus, (Box((0,), (5,)),), 6)
        assert validate_tiling(missing).problems == ("6 torus vertices uncovered",)
        wrong_width = Tiling(torus, (Box((0,), (8,)), Box((9,), (2,))), 6)
        assert validate_tiling(wrong_width).problems == (
            "region at (0,) spans 9 vertices along axis 1; expected 6 or 7",
            "region at (9,) spans 3 vertices along axis 1; expected 6 or 7",
        )
        # six vertices on a ring of five: the region meets itself, no other
        self_overlap = Tiling(Torus((5,)), (Box((0,), (5,)),), 5)
        assert validate_tiling(self_overlap).problems == (
            "region at (0,) self-overlaps modulo the torus",
        )


def torus_edge(edge, torus):
    base, axis = edge
    return torus.reduce(base), axis


def crossing_edges(tiling):
    within = set()
    for region in tiling.regions:
        for e in edges_in(region):
            within.add(torus_edge(e, tiling.torus))
    all_edges = {
        (v, ax)
        for v in tiling.torus.vertices()
        for ax in range(1, tiling.torus.n + 1)
    }
    return all_edges - within


class TestColorTiling:
    def test_plain_13x13(self):
        tiling = brick_tiling(Torus((13, 13)), 6, offsets=(0, 3))
        coloring = color_tiling(tiling, mode="plain")
        report = verify_tiling_coloring(coloring, tiling, "plain")
        assert report.ok, report.problems
        assert len(set(coloring.values())) <= 5
        for e in crossing_edges(tiling):
            assert coloring.get(e) == C(e[1])

    def test_core_mode_with_real_cores(self):
        tiling = brick_tiling(Torus((13, 13)), 6, offsets=(0, 3))
        coloring = color_tiling(tiling, mode="core")
        report = verify_tiling_coloring(coloring, tiling, "core")
        assert report.ok, report.problems
        extra = [e for e, c in coloring.items() if c == P(3)]
        assert extra  # the all-even region really uses its core
        assert set(extra) <= allowed_core_edges(tiling)

    def test_core_mode_all_odd_regions(self):
        # 12 = 6 + 6 gives only odd-sized boxes; the extra color is unused
        tiling = brick_tiling(Torus((12, 12)), 6)
        coloring = color_tiling(tiling, mode="core")
        report = verify_tiling_coloring(coloring, tiling, "core")
        assert report.ok, report.problems
        assert P(3) not in coloring.values()

    def test_core_edge_budget(self):
        # edges of one core never exceed the 2-cube edge count
        tiling = brick_tiling(Torus((13, 13)), 6, offsets=(0, 3))
        coloring = color_tiling(tiling, mode="core")
        n = 2
        budget = n * 2 * 3 ** (n - 1)
        for idx, region in enumerate(tiling.regions):
            if not is_all_even(region):
                continue
            core_edges = {
                torus_edge(e, tiling.torus) for e in edges_in(region.core())
            }
            used = sum(1 for e in core_edges if coloring.get(e) == P(n + 1))
            assert used <= budget

    def test_locality(self):
        # equal-size regions carry identical colorings relative to their
        # own origin, including their adjacent edges
        tiling = brick_tiling(Torus((26, 26)), 6, offsets=(0, 4))
        coloring = color_tiling(tiling, mode="core")

        def normalized(region):
            out = {}
            for base, axis in edges_in(region) + adjacent_edges(region):
                rel = tuple(b - o for b, o in zip(base, region.origin))
                out[(rel, axis)] = coloring.get(torus_edge((base, axis), tiling.torus))
            return out

        by_size = {}
        for region in tiling.regions:
            by_size.setdefault(region.sizes, []).append(normalized(region))
        assert any(len(v) > 1 for v in by_size.values())
        for group in by_size.values():
            assert all(g == group[0] for g in group)

    @pytest.mark.parametrize(
        "mode,sizes,shift",
        [("plain", (9, 10), None), ("core", (10, 10), None), ("core", (9, 10), None),
         ("shifted", (10, 10), (2, -2))],
    )
    def test_region_coloring_is_shared(self, mode, sizes, shift):
        # one list per size and shift; placed through the frame of a region
        # anywhere on the torus, it is the builder's coloring of that region
        t = shift or (0, 0)
        local = local_edges(sizes, mode == "plain", t)
        assert local_edges(sizes, mode == "plain", t) is local
        torus = Torus((23, 29))
        for origin in [(7, 3), (-4, 11), (20, 0)]:
            region = Box(origin, sizes)
            if mode == "plain":
                built = color_bc1(region)
            elif is_all_even(region):
                built = color_shifted_core(region, t)
            else:
                built = color_bc2(region, first_odd_axis(region))
            assert placed(local, region, torus) == {
                torus_edge(edge, torus): color for edge, color in built.items()
            }

    def test_seeded_family_properness(self):
        cases = 0
        for d in (2, 3, 6):
            for seed in range(6):
                for moduli in [(9,), (13,), (7, 9), (13, 14)]:
                    try:
                        for q in moduli:
                            segment_lengths(q, d)
                    except InfeasibleError:
                        continue
                    tiling = brick_tiling(Torus(moduli), d, seed=seed)
                    coloring = color_tiling(tiling, mode="plain")
                    report = verify_tiling_coloring(coloring, tiling, "plain")
                    assert report.ok, (d, seed, moduli, report.problems)
                    cases += 1
        assert cases >= 50

    def test_three_dimensional(self):
        for moduli, d in [((5, 5, 5), 2), ((7, 5, 9), 2)]:
            tiling = brick_tiling(Torus(moduli), d, seed=3)
            assert validate_tiling(tiling).ok
            coloring = color_tiling(tiling, mode="core")
            report = verify_tiling_coloring(coloring, tiling, "core")
            assert report.ok, report.problems
            assert len(set(coloring.values())) <= 7

    def test_core_torus_verification(self):
        tiling = brick_tiling(Torus((13, 13)), 6, offsets=(0, 3))
        coloring = color_tiling(tiling, mode="core")
        report = verify_tiling_coloring(coloring, tiling, "core")
        assert report.ok

    def test_disagreeing_regions_raise(self, force_conflict):
        tiling = brick_tiling(Torus((13, 13)), 6)
        with pytest.raises(ColorConflictError) as err:
            color_tiling(tiling, mode="core")
        # raised by the level placer's store, called from color_tiling
        assert [entry.name for entry in err.traceback][-3:] == [
            "color_tiling", "_place_level", "_store"]

    def test_mode_validation(self):
        tiling = brick_tiling(Torus((12,)), 4)  # d = 4 is not 2 mod 4
        assert validate_tiling(tiling).ok
        with pytest.raises(InfeasibleError):
            color_tiling(tiling, mode="core")
        tiling = brick_tiling(Torus((12,)), 6)
        for mode in ("nonsense", "shifted"):
            with pytest.raises(InvalidInputError):
                color_tiling(tiling, mode=mode)
            with pytest.raises(InvalidInputError):
                verify_tiling_coloring(color_tiling(tiling, mode="core"), tiling, mode)


def reference_torus_problems(coloring, tiling, mode):
    """The dict-of-sets reading of the torus conditions, for comparison."""
    torus = tiling.torus
    n = torus.n
    expected = {(v, ax) for v in torus.vertices() for ax in range(1, n + 1)}
    if set(dict(coloring.items())) != expected:
        return ["totality"]
    if not set(coloring.values()) <= set(palette(n)):
        return ["palette"]
    at_vertex = {}
    for (base, axis), color in coloring.items():
        up = torus.add(base, tuple(1 if i == axis - 1 else 0 for i in range(n)))
        for v in (base, up):
            if color in at_vertex.setdefault(v, set()):
                return ["twice"]
            at_vertex[v].add(color)
    if mode == "core":
        allowed = allowed_core_edges(tiling)
        if any(c == P(n + 1) and e not in allowed for e, c in coloring.items()):
            return ["escapes"]
    return []


class TestTorusVerifier:
    """verify_tiling_coloring against single-edge mutations."""

    @pytest.fixture
    def core13(self):
        tiling = brick_tiling(Torus((13, 13)), 6, offsets=(0, 3))
        return tiling, color_tiling(tiling, mode="core")

    def test_every_single_edge_recolor(self, core13):
        tiling, coloring = core13
        good = dict(coloring.items())
        rejected = 0
        for edge, color in good.items():
            for wrong in palette(2):
                if wrong == color:
                    continue
                mutant = {**good, edge: wrong}
                report = verify_tiling_coloring(mutant, tiling, "core")
                assert report.ok == (not reference_torus_problems(mutant, tiling, "core"))
                rejected += not report.ok
        # a recolor can only survive where both endpoints miss the same color
        assert rejected >= 0.95 * len(good) * 4

    def test_deleted_edge_trips_totality(self, core13):
        tiling, coloring = core13
        good = dict(coloring.items())
        del good[((4, 7), 2)]
        report = verify_tiling_coloring(good, tiling, "core")
        assert not report.ok
        assert any("totality" in p and "1 missing" in p for p in report.problems)

    @pytest.mark.parametrize(
        "alien", [((13, 0), 1), ((0, 0), 3), ((0, 0, 0), 1), "x"]
    )
    def test_alien_key_rejected(self, core13, alien):
        tiling, coloring = core13
        mutant = {**coloring, alien: C(1)}
        report = verify_tiling_coloring(mutant, tiling, "core")
        assert not report.ok
        assert any("1 alien" in p for p in report.problems)

    def test_alien_key_in_place_of_an_edge(self, core13):
        tiling, coloring = core13
        good = dict(coloring.items())
        color = good.pop(((0, 0), 1))
        good[((13, 0), 1)] = color  # the same edge, base not reduced
        report = verify_tiling_coloring(good, tiling, "core")
        assert not report.ok
        assert any("1 missing, 1 alien" in p for p in report.problems)

    def test_extra_color_outside_cores_rejected(self, core13):
        tiling, coloring = core13
        allowed = allowed_core_edges(tiling)
        edge = next(e for e, _ in sorted(coloring.items()) if e not in allowed)
        mutant = {**coloring, edge: P(3)}
        report = verify_tiling_coloring(mutant, tiling, "core")
        assert not report.ok
        assert any("escapes the cores" in p for p in report.problems)
        # plain mode lets the extra color go anywhere
        plain = color_tiling(tiling, mode="plain")
        assert verify_tiling_coloring(plain, tiling, "plain").ok

    @pytest.mark.parametrize("wrong", [P(4), C(3), 1, "p1"])
    def test_off_palette_color_rejected(self, core13, wrong):
        tiling, coloring = core13
        mutant = {**coloring, ((5, 5), 1): wrong}
        report = verify_tiling_coloring(mutant, tiling, "core")
        assert not report.ok
        assert any("palette" in p for p in report.problems)
