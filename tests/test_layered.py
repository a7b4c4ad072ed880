"""Coset models and the multi-level coloring pipeline."""

from dataclasses import replace
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chromatile import layered
from chromatile.errors import (
    ColorConflictError,
    InfeasibleError,
    InvalidInputError,
    VerificationError,
)
from chromatile.grid import Torus, adjacent_edges, edges_in, unit_vector
from chromatile.lattice import GeneratorSet, decompose_with_constants, vscale
from chromatile.layered import (
    ZERO,
    CosetModel,
    build_model,
    level_color_name,
    level_palette,
    run_layered,
    run_pipeline,
    verify_layered,
)
from chromatile.rectcolor import P
from chromatile.tiling import (
    brick_tiling,
    color_tiling,
    local_edges,
    segment_lengths,
    verify_tiling_coloring,
)
from reference import orbit_reps_by_walk, placed, to_ambient

S_ONE_TWO = GeneratorSet.from_vectors([(1,), (2,)])
S_DIAG = GeneratorSet.from_vectors([(1, 0), (0, 1), (1, 1)])
S_CUBE = GeneratorSet.from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])


class TestBuildModel:
    def test_one_two_on_twelve(self):
        dec = decompose_with_constants(S_ONE_TWO)
        models = build_model(S_ONE_TWO, dec, (12,), d_override=6)
        level0, level1 = models
        assert level0.chart_moduli == (12,) and len(level0.reps) == 1
        assert level1.chart_moduli == (6,) and len(level1.reps) == 2
        assert level1.basis == ((2,),)

    def test_standard_single_level(self):
        s = GeneratorSet.standard(2)
        dec = decompose_with_constants(s)
        models = build_model(s, dec, (12, 12), d_override=6)
        (m0,) = models
        assert m0.chart_moduli == (12, 12)
        assert m0.reps == ((0, 0),)

    def test_diagonal_orbits(self):
        dec = decompose_with_constants(S_DIAG)
        models = build_model(S_DIAG, dec, (12, 12), d_override=6)
        level1 = models[1]
        assert level1.chart_moduli == (12,)
        assert len(level1.reps) == 12

    def test_unrepresentable_circumference(self):
        dec = decompose_with_constants(S_ONE_TWO)
        with pytest.raises(InfeasibleError) as err:
            build_model(S_ONE_TWO, dec, (10,), d_override=6)
        assert "circumference" in str(err.value)

    def test_non_product_orbits_rejected(self):
        s = GeneratorSet.from_vectors([(1, -1), (1, 0), (1, 1)])
        dec = decompose_with_constants(s)
        with pytest.raises(InfeasibleError) as err:
            build_model(s, dec, (7, 13), d_override=6)
        assert "product tori" in str(err.value)

    def test_chart_covers_torus(self):
        dec = decompose_with_constants(S_DIAG)
        models = build_model(S_DIAG, dec, (13, 13), d_override=6)
        for model in models:
            seen = set()
            for rep in model.reps:
                for w in model.orbit(rep):
                    assert w not in seen
                    seen.add(w)
            assert len(seen) == 13 * 13

    @pytest.mark.parametrize(
        "s,moduli",
        [(S_ONE_TWO, (13,)), (S_DIAG, (13, 13)), (S_CUBE, (19, 19, 19))],
        ids=["one-two-13", "diag-13x13", "cube-19x19x19"],
    )
    def test_orbit_table_matches_chart_map(self, s, moduli):
        # the table lists the chart map's image of every chart point z, in
        # row-major order
        dec = decompose_with_constants(s)
        for model in build_model(s, dec, moduli, d_override=6):
            chart = list(product(*[range(r) for r in model.chart_moduli]))
            for rep in model.reps:
                assert model.orbit(rep) == [to_ambient(model, rep, z) for z in chart]


@st.composite
def model_cases(draw):
    """The standard basis of Z^n, n <= 3, with one or two more small vectors,
    on moduli of 3..9; d = 2 splits every circumference of 3 or more."""
    n = draw(st.integers(1, 3))
    extra = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n).filter(any),
                          min_size=1, max_size=2))
    s = GeneratorSet.from_vectors(list(GeneratorSet.standard(n).members) + extra)
    moduli = tuple(draw(st.lists(st.integers(3, 9), min_size=n, max_size=n)))
    try:
        return build_model(s, decompose_with_constants(s), moduli, d_override=2)
    except (InfeasibleError, InvalidInputError):
        assume(False)


class TestOrbitRepresentatives:
    @settings(max_examples=150, deadline=None)
    @given(model_cases())
    def test_match_the_walk(self, models):
        """Every level's representatives are the least points of its orbits,
        in lex order, as a walk over the whole torus finds them."""
        for model in models:
            assert model.reps == orbit_reps_by_walk(model)

    def test_count_check(self, monkeypatch):
        # one representative short: the orbits no longer cover the torus
        real = layered.product
        monkeypatch.setattr(layered, "product", lambda *ranges: list(real(*ranges))[1:])
        dec = decompose_with_constants(S_DIAG)
        with pytest.raises(VerificationError) as err:
            build_model(S_DIAG, dec, (13, 13), d_override=6)
        assert str(err.value) == "level 0: 0 orbits of 169 points do not cover the 169 vertices"


class TestRunLayered:
    def test_one_dimensional_multiple_of_d(self):
        run = run_pipeline(S_ONE_TWO, (6276,))
        assert run.report.ok, run.report.problems
        assert run.report.color_count <= len(S_ONE_TWO) + 1
        assert run.report.zero_edges == 0  # pure-d segments carry no cores

    def test_one_dimensional_with_cores(self):
        run = run_pipeline(S_ONE_TWO, (6277,))
        assert run.report.ok, run.report.problems
        assert run.report.color_count == 5
        assert run.report.zero_edges == 2
        assert [len(k) for k in run.result.k_sets] == [3, 3]

    def test_collision_forces_nonzero_shift(self):
        # the level-0 tiling offset drops the default core onto the
        # level-1 cores, so the search must move it by beta*s
        dec = decompose_with_constants(S_ONE_TWO)
        models = build_model(S_ONE_TWO, dec, (6277,))
        tilings = [brick_tiling(models[0].chart_torus(), dec.d, offsets=(4706,)),
                   brick_tiling(models[1].chart_torus(), dec.d)]
        result = run_layered(S_ONE_TWO, dec, models, tilings)
        report = verify_layered(result, S_ONE_TWO, (6277,))
        assert report.ok, report.problems
        assert max(result.shifts.values()) == 1

    def test_two_dimensional_override(self):
        run = run_pipeline(S_DIAG, (37, 37), d_override=18)
        assert run.report.ok, run.report.problems
        assert run.report.color_count <= len(S_DIAG) + 1 == 7
        assert run.report.zero_edges > 0
        assert max(run.result.shifts.values()) == 1  # avoidance exercised

    def test_three_dimensional_override(self):
        run = run_pipeline(S_CUBE, (37, 37, 37), d_override=18)
        assert run.report.ok, run.report.problems
        assert run.report.color_count <= len(S_CUBE) + 1 == 9
        assert run.report.zero_edges > 0

    def test_shift_out_of_range_is_loud(self):
        with pytest.raises(InfeasibleError) as err:
            run_pipeline(S_DIAG, (13, 13), d_override=6)
        assert "admissible range" in str(err.value)

    def test_degenerate_single_level_matches_tiling(self):
        # with one level, the pipeline is exactly the core-mode tiling
        # colorer composed with the chart identification and the level-0
        # palette relabeling; the chart basis ((0,1),(1,0)) transposes
        # coordinates, so chart axis 1 walks ambient axis 2
        s = GeneratorSet.standard(2)
        run = run_pipeline(s, (13, 13), d_override=6)
        assert run.report.ok
        tiling = brick_tiling(Torus((13, 13)), 6)
        direct = color_tiling(tiling, mode="core")
        expected = {}
        for (z, axis), color in direct.items():
            step = (0, 1) if axis == 1 else (1, 0)
            expected[((z[1], z[0]), step)] = level_color_name(color, 0, 2)
        assert dict(run.result.coloring.items()) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_one_level_is_the_torus_colorer(self, data):
        # color_tiling is the union of its regions' placed blocks, and it is
        # run_layered on one level whose chart is the identity, up to the
        # level-0 names: c{j}@0 is c{j}, p{j}@0 is j and 0 is n+1
        n = data.draw(st.integers(1, 3))
        d = data.draw(st.sampled_from((6, 10)))
        # d + 3 is no sum of parts d and d + 1
        moduli = tuple(data.draw(st.lists(
            st.sampled_from((d, d + 1, d + 3, 2 * d + 1, 2 * d + 2)), min_size=n, max_size=n)))
        try:
            for q in moduli:
                segment_lengths(q, d)
        except InfeasibleError:
            assume(False)
        mode = data.draw(st.sampled_from(("plain", "core")))
        torus = Torus(moduli)
        tiling = brick_tiling(torus, d, seed=data.draw(st.integers(0, 10**6)))
        direct = color_tiling(tiling, mode)
        union = {}
        for region in tiling.regions:
            union.update(placed(local_edges(region.sizes, mode == "plain", (0,) * n),
                                region, torus))
        assert direct == union
        if mode == "plain":
            return
        s = GeneratorSet.standard(n)
        basis = tuple(unit_vector(n, ax) for ax in range(1, n + 1))
        model = CosetModel(0, moduli, basis, moduli, ((0,) * n,),
                           tuple(map(list, zip(*torus.vertices()))))
        result = run_layered(s, decompose_with_constants(s), [model], [tiling])
        assert verify_layered(result, s, moduli).ok

        def torus_name(color):
            if color == ZERO:
                return P(n + 1)
            name = color.removesuffix("@0")
            return name if name.startswith("c") else name[1:]

        axis_of = {step: ax for ax, step in enumerate(basis, start=1)}
        assert {(base, axis_of[step]): torus_name(color)
                for (base, step), color in result.coloring.items()} == direct

    def test_corruption_detected(self):
        run = run_pipeline(S_ONE_TWO, (6277,))
        good = dict(run.result.coloring.items())
        key = min(good)
        other = next(c for c in good.values() if c != good[key])
        bad = dict(good)
        bad[key] = other
        broken = replace(run.result, coloring=bad)
        report = verify_layered(broken, S_ONE_TWO, (6277,))
        assert not report.ok
        assert any("twice" in p or "palette" in p for p in report.problems)

        del bad[key]
        missing = replace(run.result, coloring=bad)
        report2 = verify_layered(missing, S_ONE_TWO, (6277,))
        assert not report2.ok
        assert any("totality" in p for p in report2.problems)

    def test_disagreeing_regions_raise(self, force_conflict):
        with pytest.raises(ColorConflictError) as err:
            run_pipeline(S_ONE_TWO, (13,), d_override=6)
        # raised by the level placer's store, called from run_layered
        assert [entry.name for entry in err.traceback][-3:] == [
            "run_layered", "_place_level", "_store"]

    def test_palette_partition(self):
        run = run_pipeline(S_ONE_TWO, (6277,))
        # every level-i edge carries a level-i color or the shared zero
        for (base, step), color in run.result.coloring.items():
            level = 0 if step == (1,) else 1
            if color == ZERO:
                continue
            assert color.endswith(f"@{level}")

    def test_pigeonhole_translates(self):
        # at most one translate x + a*beta*s of any core point lies in a
        # single higher core set
        for run in (
            run_pipeline(S_ONE_TWO, (6277,)),
            run_pipeline(S_DIAG, (37, 37), d_override=18),
        ):
            res, dec = run.result, run.dec
            torus = Torus(res.moduli)
            beta_s = vscale(dec.beta, dec.s)
            for i, ks in enumerate(res.k_sets):
                for x in ks:
                    for j in range(i + 1, len(res.k_sets)):
                        hits = sum(
                            1
                            for a in range(dec.alpha + 1)
                            if torus.add(x, vscale(a, beta_s)) in res.k_sets[j]
                        )
                        assert hits <= 1

    def test_zero_edges_inside_k_sets(self):
        run = run_pipeline(S_DIAG, (37, 37), d_override=18)
        torus = Torus(run.result.moduli)
        union = set()
        for ks in run.result.k_sets:
            assert not union & ks
            union |= ks
        for (base, step), color in run.result.coloring.items():
            if color == ZERO:
                level = next(
                    m.level for m in run.result.models if step in m.basis
                )
                ks = run.result.k_sets[level]
                assert base in ks and torus.add(base, step) in ks


class TestLayeredLocality:
    @pytest.mark.parametrize(
        "s,moduli,d,across",
        [
            (S_ONE_TWO, (13,), 6, "level"),  # two levels of chart dimension 1
            (S_DIAG, (37, 37), 18, "orbit"),  # 37 level-1 orbits, shift factors 0 and 1
        ],
        ids=["one-two-13", "diag-37x37"],
    )
    def test_equal_regions_carry_equal_colorings(self, s, moduli, d, across):
        # every region read back from the output through its chart map, with
        # offsets from the region origin and the level suffix dropped; regions
        # of one chart dimension, size and core shift t = a * a_coeffs[level]
        # must agree, whatever their orbit and level
        res = run_pipeline(s, moduli, d_override=d).result
        groups = {}
        for model, tiling in zip(res.models, res.tilings):
            chart = model.chart_torus()
            coeffs = res.dec.a_coeffs[model.level]
            for rep in model.reps:
                for idx, region in enumerate(tiling.regions):
                    a = res.shifts.get((model.level, rep, idx))
                    t = None if a is None else tuple(a * c for c in coeffs)
                    local = {}
                    for base, axis in edges_in(region) + adjacent_edges(region):
                        key = (to_ambient(model, rep, chart.reduce(base)),
                               model.basis[axis - 1])
                        rel = tuple(b - o for b, o in zip(base, region.origin))
                        local[(rel, axis)] = res.coloring.get(key).split("@")[0]
                    place = {"level": model.level, "orbit": rep}[across]
                    groups.setdefault((model.chart_dim, region.sizes, t), []).append(
                        (place, local)
                    )
        for group in groups.values():
            assert all(local == group[0][1] for _, local in group)
        assert any(len({place for place, _ in g}) > 1 for g in groups.values())


def placed_core_edges(result):
    """Every ambient edge of every core that the result's shifts place,
    mapped one chart edge at a time."""
    allowed = set()
    for (level, rep, idx), a in result.shifts.items():
        model = result.models[level]
        t = tuple(a * c for c in result.dec.a_coeffs[level])
        core = result.tilings[level].regions[idx].shifted_core(t)
        for base, axis in edges_in(core):
            base = model.chart_torus().reduce(base)
            allowed.add((to_ambient(model, rep, base), model.basis[axis - 1]))
    return allowed


def reference_layered_problems(result, s, moduli):
    """The dict-of-sets reading of the layered conditions, for comparison."""
    torus = Torus(tuple(moduli))
    coloring = result.coloring
    expected = {(x, u) for x in torus.vertices() for u in s.pairs()}
    if set(dict(coloring.items())) != expected:
        return ["totality"]
    level_of = {b: m.level for m in result.models for b in m.basis}
    cores = placed_core_edges(result)
    for (base, step), color in coloring.items():
        level = level_of[step]
        chart_dim = result.models[level].chart_dim
        if color != ZERO and color not in level_palette(level, chart_dim):
            return ["palette"]
        if color == ZERO and (base, step) not in cores:
            return ["escapes"]
    at_vertex = {}
    for (base, step), color in coloring.items():
        for v in (base, torus.add(base, step)):
            if color in at_vertex.setdefault(v, set()):
                return ["twice"]
            at_vertex[v].add(color)
    return []


class TestLayeredVerifier:
    """verify_layered against single-edge mutations of a two-level run."""

    MODULI = (13,)

    @pytest.fixture
    def run13(self):
        # the smallest two-level run with color 0 in use
        run = run_pipeline(S_ONE_TWO, self.MODULI, d_override=6)
        assert run.report.ok and run.report.zero_edges > 0
        return run

    def mutant(self, run, coloring):
        return replace(run.result, coloring=coloring)

    def test_every_single_edge_recolor(self, run13):
        good = dict(run13.result.coloring.items())
        colors = sorted(set(good.values()))
        assert len(colors) == len(S_ONE_TWO) + 1
        rejected = 0
        for key, color in good.items():
            for wrong in colors:
                if wrong == color:
                    continue
                result = self.mutant(run13, {**good, key: wrong})
                report = verify_layered(result, S_ONE_TWO, self.MODULI)
                expected = reference_layered_problems(result, S_ONE_TWO, self.MODULI)
                assert report.ok == (not expected), (key, wrong)
                rejected += not report.ok
        assert rejected == len(good) * (len(colors) - 1)

    def test_deleted_edge_trips_totality(self, run13):
        good = dict(run13.result.coloring.items())
        del good[((5,), (2,))]
        report = verify_layered(self.mutant(run13, good), S_ONE_TWO, self.MODULI)
        assert not report.ok
        assert any("totality" in p and "1 missing" in p for p in report.problems)

    @pytest.mark.parametrize("alien", [((13,), (1,)), ((0,), (3,)), ((0, 0), (1,)), (0,)])
    def test_alien_key_rejected(self, run13, alien):
        good = dict(run13.result.coloring.items())
        report = verify_layered(
            self.mutant(run13, {**good, alien: "c1@0"}), S_ONE_TWO, self.MODULI
        )
        assert not report.ok
        assert any("totality" in p and "1 alien" in p for p in report.problems)

    def test_zero_outside_the_cores_rejected(self, run13):
        good = dict(run13.result.coloring.items())
        cores = set().union(*run13.result.k_sets)
        key = next(k for k in sorted(good) if k[0] not in cores)
        report = verify_layered(
            self.mutant(run13, {**good, key: ZERO}), S_ONE_TWO, self.MODULI
        )
        assert not report.ok
        assert any("color 0 escapes" in p for p in report.problems)

    @pytest.mark.parametrize(
        "n,key", [(2, ((0, 2), (0, 1))), (3, ((0, 0, 2), (0, 0, 1)))], ids=["3x3", "3x3x3"]
    )
    def test_zero_on_a_wrap_edge_rejected(self, n, key):
        # at d = 2 the one region of the 3^n torus, and so its core, spans
        # the whole torus: both ends of the wrap edge lie in the core set,
        # yet the edge is not an edge of the core box
        s, moduli = GeneratorSet.standard(n), (3,) * n
        run = run_pipeline(s, moduli, d_override=2)
        assert run.report.ok and run.result.coloring[key] == "c1@0"
        torus = Torus(moduli)
        assert {key[0], torus.add(*key)} <= run.result.k_sets[0]
        report = verify_layered(
            self.mutant(run, {**run.result.coloring, key: ZERO}), s, moduli
        )
        assert not report.ok
        assert report.problems == (
            f"color 0 escapes the level-0 cores at {key} (1 edges in all)",
        )
        # the torus path rejects the same edge carrying its extra color
        tiling = brick_tiling(torus, 2)
        coloring = color_tiling(tiling, mode="core")
        axis = key[1].index(1) + 1
        wrapped = {**coloring, (key[0], axis): str(n + 1)}
        assert any(
            "escapes the cores" in p
            for p in verify_tiling_coloring(wrapped, tiling, "core").problems
        )

    @pytest.mark.parametrize("n", [2, 3], ids=["3x3", "3x3x3"])
    def test_core_set_must_match_the_placed_cores(self, n):
        s, moduli = GeneratorSet.standard(n), (3,) * n
        run = run_pipeline(s, moduli, d_override=2)
        ks = run.result.k_sets[0]
        for k_set in (ks - {min(ks)}, ks | {(3,) * n}):
            report = verify_layered(replace(run.result, k_sets=(k_set,)), s, moduli)
            assert report.problems == (
                "level 0: core set differs from the cores its shifts place",
            )

    @pytest.mark.parametrize(
        "shifts,line",
        [
            ({(0, (0, 0), 5): 0}, "shift (0, (0, 0), 5) names no all-even region of level 0"),
            ({(1, (0, 0), 0): 0}, "shift (1, (0, 0), 0) names no orbit representative"),
            ({(0, (0, 0), 0): 4}, "shift (0, (0, 0), 0) places no core: shift (24, 0) exceeds"),
            ({(0, (1, 1), 0): 0}, "shift (0, (1, 1), 0) names no orbit representative"),
            ({(0, (0, 0)): 0}, "shift (0, (0, 0)) is not a (level, orbit rep, region index) key"),
            ({(0, (0, 0), 0, 9): 0}, "shift (0, (0, 0), 0, 9) is not a (level, orbit rep,"),
            ({(0.0, (0, 0), 0): 0}, "shift (0.0, (0, 0), 0) is not a (level, orbit rep,"),
            ({(0, (0, 0), 0): "x"}, "shift (0, (0, 0), 0) has factor 'x', not an int"),
            ({(0, (0, 0), 0): None}, "shift (0, (0, 0), 0) has factor None, not an int"),
            ({(0, (0, 0), 0): 0.0}, "shift (0, (0, 0), 0) has factor 0.0, not an int"),
        ],
        ids=["no-region", "no-level", "out-of-range", "not-a-rep", "short-key", "long-key",
             "float-level", "str-factor", "none-factor", "float-factor"],
    )
    def test_bad_shift_is_a_problem_line(self, shifts, line):
        # the 3 x 3 run's one shift is {(0, (0, 0), 0): 0}; its one orbit
        # rep is (0, 0), its one region is 2 x 2 and a_coeffs[0] = (6, 0)
        s, moduli = GeneratorSet.standard(2), (3, 3)
        run = run_pipeline(s, moduli, d_override=2)
        assert run.result.shifts == {(0, (0, 0), 0): 0}
        report = verify_layered(replace(run.result, shifts=shifts), s, moduli)
        assert not report.ok
        bad = [p for p in report.problems if p.startswith("shift ")]
        assert len(bad) == 1 and bad[0].startswith(line)

    def test_every_single_edge_recolor_on_a_whole_torus_core(self):
        # the core is the whole 3 x 3 torus, so color 0 on a wrap edge
        # has both ends in the core set
        s, moduli = GeneratorSet.standard(2), (3, 3)
        run = run_pipeline(s, moduli, d_override=2)
        good = dict(run.result.coloring.items())
        colors = sorted(set(good.values()))
        for key, color in good.items():
            for wrong in colors:
                if wrong != color:
                    result = self.mutant(run, {**good, key: wrong})
                    report = verify_layered(result, s, moduli)
                    assert report.ok == (not reference_layered_problems(result, s, moduli))

    def test_other_level_and_off_palette_colors_rejected(self, run13):
        good = dict(run13.result.coloring.items())
        key = ((3,), (1,))  # a level-0 edge
        other = verify_layered(
            self.mutant(run13, {**good, key: "c1@1"}), S_ONE_TWO, self.MODULI
        )
        assert any("another level's palette" in p for p in other.problems)
        alien = verify_layered(
            self.mutant(run13, {**good, key: "c9@0"}), S_ONE_TWO, self.MODULI
        )
        assert any("outside the palette" in p for p in alien.problems)
