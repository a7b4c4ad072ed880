"""Rectangle colorings against the literal condition verifiers."""

import re
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromatile.document import document_for_rect, serialize_coloring
from chromatile import rectcolor
from chromatile.errors import (
    ColorConflictError,
    InfeasibleError,
    InvalidInputError,
)
from chromatile.grid import Box, Torus, adjacent_edges, edges_in
from chromatile.rectcolor import (
    C,
    P,
    RectColoring,
    _bc1,
    _bc2,
    _blank,
    _edge_mask,
    _store,
    color_bc1,
    color_bc2,
    color_core,
    color_shifted_core,
    palette,
    verify_boundary_condition,
    verify_shifted_core,
)
import reference
from chromatile.tiling import local_edges
from reference import (
    admissible_shifts,
    endpoints,
    placed,
    read_off_bc1,
    read_off_bc2,
    read_off_shifted_core,
    verify_proper,
)


def boxes(n, max_side):
    for sizes in product(range(1, max_side + 1), repeat=n):
        yield Box((0,) * n, sizes)


def built(write, origin, sizes, arg):
    """The coloring that an internal builder writes into a blank frame."""
    frame = _blank(Box(origin, sizes))
    write(frame, origin, sizes, arg)
    return frame


def bc1_in_order(box, order):
    """color_bc1 peeling the axes in the given order, last axis first."""
    return built(_bc1, box.origin, box.sizes, order)


class TestStore:
    def test_conflicting_write_raises(self):
        c = {}
        e = ((0,), 1)
        _store(c, e, P(1))
        _store(c, e, P(1))  # same color is fine
        with pytest.raises(ColorConflictError, match=r"edge \(\(0,\), 1\): 1 vs 2"):
            _store(c, e, P(2))
        assert c == {e: P(1)}


class TestBlockWrites:
    """A run that contradicts a nonzero byte already in the frame raises
    before it is written."""

    def test_disagreeing_path_raises(self):
        # bc1 writes c1 1 2 1 c1 along the side-3 path, bc2 c1 1 c1 1 c1
        box = Box((4,), (3,))
        frame = _blank(box)
        _bc1(frame, box.origin, box.sizes, (1,))
        with pytest.raises(ColorConflictError, match=r"^edge \(\(5,\), 1\): 2 vs c1$"):
            _bc2(frame, box.origin, box.sizes, 1)
        assert frame == color_bc1(box)

    def test_run_keeping_the_prior_bits_raises(self):
        # the other order: c1 is byte 1 and the plain color 2 byte 3, so the
        # run keeps every bit of the prior byte and still changes it
        box = Box((4,), (3,))
        frame = _blank(box)
        _bc2(frame, box.origin, box.sizes, 1)
        with pytest.raises(ColorConflictError, match=r"^edge \(\(5,\), 1\): c1 vs 2$"):
            _bc1(frame, box.origin, box.sizes, (1,))

    @pytest.mark.parametrize("sizes", [(2, 3), (3, 3, 2), (4, 1, 3)])
    def test_message_names_the_edge_and_both_colors(self, sizes):
        # the two axis orders of bc1 disagree somewhere on these boxes
        n = len(sizes)
        box = Box((1, -2, 5)[:n], sizes)
        order = tuple(range(n, 0, -1))
        frame = _blank(box)
        _bc1(frame, box.origin, box.sizes, tuple(range(1, n + 1)))
        with pytest.raises(ColorConflictError) as err:
            _bc1(frame, box.origin, box.sizes, order)
        match = re.fullmatch(r"edge (\(\(.*\), \d\)): (\S+) vs (\S+)", str(err.value))
        assert match
        edge, prior, color = eval(match[1]), match[2], match[3]
        assert (prior, color) == (read_off_bc1(box)[edge], read_off_bc1(box, order)[edge])
        assert prior != color

    def test_agreeing_overlap_is_written(self):
        box = Box((0, 0), (3, 2))
        frame = _blank(box)
        _bc1(frame, box.origin, box.sizes, (1, 2))
        _bc1(frame, box.origin, box.sizes, (1, 2))
        assert frame == color_bc1(box)


class TestBuiltInPlace:
    """A box at any origin gets its zero-origin coloring moved there,
    edge for edge and in the same order."""

    @pytest.mark.parametrize("origin", [(3, 5, 2), (-4, -1, -7), (6, -3, 0), (-2, 0, 9)])
    @pytest.mark.parametrize(
        "build,sizes",
        [
            (color_bc1, (3, 6, 5)),
            (lambda box: bc1_in_order(box, (3, 1, 2)), (3, 6, 5)),
            (lambda box: color_bc2(box, 1), (3, 6, 5)),
            (lambda box: color_bc2(box, 3), (3, 6, 5)),
            (color_core, (10, 10, 10)),
            (lambda box: color_shifted_core(box, (2, 0, -2)), (10, 10, 10)),
        ],
        ids=["bc1", "bc1-order", "bc2-axis1", "bc2-axis3", "core", "shifted"],
    )
    def test_equals_zero_origin_build_moved(self, build, sizes, origin):
        at_zero = build(Box((0, 0, 0), sizes))
        expected = [
            ((tuple(b + o for b, o in zip(base, origin)), axis), c)
            for (base, axis), c in at_zero.items()
        ]
        assert list(build(Box(origin, sizes)).items()) == expected


class TestBc1:
    def test_base_case(self):
        box = Box((0,), (2,))
        c = color_bc1(box)
        assert c.get(((-1,), 1)) == C(1)
        assert c.get(((2,), 1)) == C(1)
        assert c.get(((0,), 1)) == P(1)
        assert c.get(((1,), 1)) == P(2)

    @pytest.mark.parametrize("n,max_side", [(1, 5), (2, 4), (3, 3)])
    def test_sweep(self, n, max_side):
        for box in boxes(n, max_side):
            c = color_bc1(box)
            assert set(dict(c.items())) == set(edges_in(box)) | set(adjacent_edges(box))
            assert verify_proper(c)
            assert verify_boundary_condition(c, box)
            assert set(c.values()) <= set(palette(n))

    def test_axis_order(self):
        box = Box((0, 0), (3, 2))
        assert verify_boundary_condition(bc1_in_order(box, (2, 1)), box)

    def test_layer_identity(self):
        box = Box((0, 0, 0), (2, 3, 4))
        c = color_bc1(box)
        # restriction of the coloring to any two slices perpendicular to
        # the peeled (last) axis is identical
        def slice_colors(h):
            out = {}
            for (base, axis), color in c.items():
                if axis != 3 and base[2] == h:
                    out[(base[:2], axis)] = color
            return out

        first = slice_colors(0)
        assert first
        for h in range(1, 5):
            assert slice_colors(h) == first

    def test_deterministic(self):
        box = Box((1, -2), (3, 4))
        assert color_bc1(box) == color_bc1(box)


class TestBc2:
    def test_base_cases(self):
        c1 = color_bc2(Box((0,), (1,)), 1)
        assert c1.get(((0,), 1)) == P(1)
        assert c1.get(((-1,), 1)) == C(1)
        assert c1.get(((1,), 1)) == C(1)

        c3 = color_bc2(Box((0,), (3,)), 1)
        seq = [c3.get(((i,), 1)) for i in range(-1, 4)]
        assert seq == [C(1), P(1), C(1), P(1), C(1)]

    @pytest.mark.parametrize("n,max_side", [(1, 5), (2, 4), (3, 3)])
    def test_sweep(self, n, max_side):
        extra = P(n + 1)
        for box in boxes(n, max_side):
            odd_axes = [ax for ax, a in enumerate(box.sizes, start=1) if a % 2]
            if not odd_axes:
                continue
            for odd_axis in odd_axes:
                c = color_bc2(box, odd_axis)
                assert verify_proper(c)
                assert verify_boundary_condition(c, box)
                assert extra not in c.values()
                assert len(set(c.values())) <= 2 * n

    def test_even_axis_rejected(self):
        with pytest.raises(InfeasibleError):
            color_bc2(Box((0, 0), (2, 3)), 1)

    def test_layer_identity(self):
        box = Box((0, 0), (3, 4))
        c = color_bc2(box, 1)

        def slice_colors(h):
            return {
                (base[1], axis): color
                for (base, axis), color in c.items()
                if axis != 1 and base[0] == h
            }

        first = slice_colors(0)
        assert first
        for h in range(1, 4):
            assert slice_colors(h) == first


@st.composite
def build_cases(draw):
    """A box with n <= 4, sides 1..9 and a random origin, capped at 1,000
    vertices or so, which keeps the peeling reference quick, and an axis
    order."""
    n = draw(st.integers(1, 4))
    sizes, vertices = [], 1
    for _ in range(n):
        side = draw(st.integers(1, max(1, min(9, 1000 // vertices - 1))))
        sizes.append(side)
        vertices *= side + 1
    origin = tuple(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)))
    return origin, tuple(sizes), tuple(draw(st.permutations(range(1, n + 1))))


class TestAgainstPeeling:
    """The closed-form rule gives exactly what the peeling induction gives."""

    @settings(max_examples=300, deadline=None)
    @given(build_cases())
    def test_equals_peeling_reference(self, case):
        origin, sizes, order = case
        peeled = {}
        reference._bc1(peeled, origin, sizes, order)
        assert built(_bc1, origin, sizes, order) == peeled
        for ax in range(1, len(sizes) + 1):
            if sizes[ax - 1] % 2:
                peeled = {}
                reference._bc2(peeled, origin, sizes, ax)
                assert built(_bc2, origin, sizes, ax) == peeled


@st.composite
def random_boxes(draw):
    n = draw(st.integers(1, 4))
    sizes = tuple(draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)))
    origin = tuple(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)))
    return Box(origin, sizes)


@st.composite
def random_cubes(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.sampled_from([2, 6, 10]))
    origin = tuple(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)))
    return Box(origin, (d,) * n), draw(st.sampled_from(list(admissible_shifts(d, n))))


def on_torus(coloring, torus):
    return {(torus.reduce(base), axis): color for (base, axis), color in coloring.items()}


def roomy_torus(box):
    """A torus on which the box's padded frame does not wrap."""
    return Torus(tuple(a + 3 for a in box.sizes))


class TestAgainstReadOff:
    """Every public builder, and the cached blocks placed on a torus, give
    what the rule gives written edge by edge into a dict."""

    @settings(max_examples=60, deadline=None)
    @given(random_boxes())
    def test_boundary_builders(self, box):
        expected = read_off_bc1(box)
        assert color_bc1(box) == expected
        torus = roomy_torus(box)
        blocks = local_edges(box.sizes, True, (0,) * box.n)
        assert placed(blocks, box, torus) == on_torus(expected, torus)
        odd = [ax for ax, a in enumerate(box.sizes, start=1) if a % 2]
        for ax in odd:
            assert color_bc2(box, ax) == read_off_bc2(box, ax)
        if odd:
            blocks = local_edges(box.sizes, False, (0,) * box.n)
            assert placed(blocks, box, torus) == on_torus(read_off_bc2(box, odd[0]), torus)

    @settings(max_examples=40, deadline=None)
    @given(random_cubes())
    def test_core_builders(self, case):
        box, t = case
        expected = read_off_shifted_core(box, t)
        assert color_shifted_core(box, t) == expected
        if not any(t):
            assert color_core(box) == expected
        torus = roomy_torus(box)
        blocks = local_edges(box.sizes, False, t)
        assert placed(blocks, box, torus) == on_torus(expected, torus)


class TestCore:
    def test_d2_equals_bc1(self):
        for n in (1, 2, 3):
            box = Box((0,) * n, (2,) * n)
            assert color_core(box) == color_bc1(box)

    def test_one_dimensional_enumeration(self):
        box = Box((0,), (6,))
        c = color_core(box)
        extra_edges = [e for e, col in c.items() if col == P(2)]
        core_edges = set(edges_in(box.core()))
        assert extra_edges and set(extra_edges) <= core_edges

        box10 = Box((0,), (10,))
        c10 = color_shifted_core(box10, (2,))
        allowed = set(edges_in(Box((6,), (2,))))
        assert all(e in allowed for e, col in c10.items() if col == P(2))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("d", [2, 6, 10])
    def test_core_and_shifts(self, n, d):
        box = Box((0,) * n, (d,) * n)
        c = color_core(box)
        assert verify_boundary_condition(c, box)
        assert verify_shifted_core(c, box, (0,) * box.n)
        for t in admissible_shifts(d, n):
            ct = color_shifted_core(box, t)
            assert verify_boundary_condition(ct, box)
            assert verify_shifted_core(ct, box, t)

    def test_zero_shift_matches_core(self):
        box = Box((0, 0), (6, 6))
        assert color_shifted_core(box, (0, 0)) == color_core(box)

    def test_shift_validation(self):
        box = Box((0, 0), (10, 10))
        with pytest.raises(InfeasibleError):
            color_shifted_core(box, (1, 0))  # odd
        with pytest.raises(InfeasibleError):
            color_shifted_core(box, (4, 0))  # out of range for k=2
        with pytest.raises(InfeasibleError):
            color_core(Box((0, 0), (3, 3)))  # not 2 mod 4
        with pytest.raises(InfeasibleError):
            color_core(Box((0, 0), (6, 10)))  # not a cube

    def test_positioning(self):
        moved = Box((5, -7), (6, 6))
        c = color_core(moved)
        assert verify_shifted_core(c, moved, (0,) * moved.n)


class TestVerifiers:
    def test_reference_coloring_passes(self, reference_2x2_box, reference_2x2_coloring):
        assert verify_proper(reference_2x2_coloring)
        assert verify_boundary_condition(reference_2x2_coloring, reference_2x2_box)

    def test_single_mutation_breaks_properness(
        self, reference_2x2_box, reference_2x2_coloring
    ):
        good = dict(reference_2x2_coloring.items())
        edges = sorted(good)
        for edge in edges:
            verts = set(endpoints(edge))
            neighbor_colors = {
                good[f] for f in edges if f != edge and verts & set(endpoints(f))
            }
            for wrong in sorted(neighbor_colors):
                mutated = {**good, edge: wrong}
                assert not verify_proper(mutated)

    def test_partial_coloring_rejected(self):
        box = Box((0,), (2,))
        c = color_bc1(box)
        partial = dict(list(c.items())[:-1])
        with pytest.raises(InvalidInputError):
            verify_boundary_condition(partial, box)

    def test_shifted_core_check_needs_even_sides(self):
        box = Box((0, 0), (3, 3))
        c = color_bc2(box, 1)
        assert verify_boundary_condition(c, box)
        with pytest.raises(InvalidInputError):
            verify_shifted_core(c, box, (0, 0))

    def test_boundary_condition_rejects_wrong_direction_color(self):
        box = Box((0,), (2,))
        c = color_bc1(box)
        broken = {**c, ((-1,), 1): P(2)}
        assert not verify_boundary_condition(broken, box)


def reference_box_holds(coloring, box, t=None):
    """The condition read literally: restrict, check properness, boundary
    colors and (with t) core confinement."""
    inner, adj = edges_in(box), adjacent_edges(box)
    if set(dict(coloring.items())) != set(inner) | set(adj):
        return False
    if not set(coloring.values()) <= set(palette(box.n)):
        return False
    if not verify_proper(coloring) or any(coloring.get(e) != C(e[1]) for e in adj):
        return False
    if t is None:
        return True
    core = set(edges_in(box.shifted_core(t)))
    return all(e in core for e, c in coloring.items() if c == P(box.n + 1))


class TestOnePassVerifiers:
    """The box verifiers also reject alien keys and off-palette colors."""

    def test_every_single_edge_recolor(self):
        box = Box((1, -2), (10, 10))
        t = (2, 0)
        good = dict(color_shifted_core(box, t).items())
        rejected = 0
        for edge, color in good.items():
            for wrong in palette(2):
                if wrong == color:
                    continue
                mutant = {**good, edge: wrong}
                verdict = verify_shifted_core(mutant, box, t)
                assert verdict == reference_box_holds(mutant, box, t), (edge, wrong)
                boundary = verify_boundary_condition(mutant, box)
                assert boundary == reference_box_holds(mutant, box), (edge, wrong)
                rejected += not verdict
        assert rejected >= 0.95 * len(good) * 4

    @pytest.mark.parametrize(
        "alien",
        [
            ((-1, -1), 1),  # parallel to the adjacent edges, past the corner
            ((7, 0), 1),  # one step beyond an adjacent edge
            ((0, -2), 2),
            ((0, 0, 0), 1),
            ((0, 0), 3),
        ],
    )
    def test_alien_adjacent_looking_key(self, alien):
        box = Box((0, 0), (6, 6))
        c = color_core(box)
        mutant = {**c, alien: C(1)}
        assert verify_boundary_condition(c, box)
        assert not verify_boundary_condition(mutant, box)
        assert not verify_shifted_core(mutant, box, (0, 0))

    @pytest.mark.parametrize("wrong", [P(4), C(3), 1, "p1"])
    def test_off_palette_color(self, wrong):
        box = Box((0, 0), (6, 6))
        good = dict(color_core(box).items())
        mutant = {**good, ((2, 3), 1): wrong}
        assert not verify_boundary_condition(mutant, box)
        assert not verify_shifted_core(mutant, box, (0, 0))

    def test_missing_edge_raises_even_with_an_alien_key(self):
        box = Box((0, 0), (6, 6))
        good = dict(color_core(box).items())
        del good[((2, 3), 1)]
        with pytest.raises(InvalidInputError):
            verify_boundary_condition(good, box)
        good[((-1, -1), 1)] = C(1)  # same count as a total coloring
        with pytest.raises(InvalidInputError):
            verify_boundary_condition(good, box)
        with pytest.raises(InvalidInputError):
            verify_shifted_core(good, box, (0, 0))

    def test_shifted_core_checks_the_boundary_condition(self):
        box = Box((0,), (6,))
        good = dict(color_core(box).items())
        broken = {**good, ((6,), 1): P(1)}
        assert not verify_shifted_core(broken, box, (0,))


@st.composite
def certifier_cases(draw):
    """A build in one of the four modes on a box with n <= 4 at a random
    origin, kept to about 1,000 vertices, with the builder's arguments."""
    n = draw(st.integers(1, 4))
    origin = tuple(draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n)))
    mode = draw(st.sampled_from(["bc1", "bc2", "core", "shifted"]))
    if mode in ("core", "shifted"):
        d = draw(st.sampled_from([d for d in (2, 6, 10) if (d + 1) ** n <= 1000]))
        box = Box(origin, (d,) * n)
        t = draw(st.sampled_from(list(admissible_shifts(d, n)))) if mode == "shifted" else (0,) * n
        return box, mode, t
    sizes, vertices = [], 1
    for _ in range(n):
        side = draw(st.integers(1, max(1, min(9, 1000 // vertices - 1))))
        sizes.append(side)
        vertices *= side + 1
    if mode == "bc2":
        sizes[draw(st.integers(0, n - 1))] |= 1  # an odd side
    return Box(origin, tuple(sizes)), mode, None


def build(box, mode, t):
    if mode == "bc1":
        return color_bc1(box)
    if mode == "bc2":
        return color_bc2(box, next(ax for ax, a in enumerate(box.sizes, start=1) if a % 2))
    return color_shifted_core(box, t) if mode == "shifted" else color_core(box)


def decoded(frame):
    """The frame's edges as a plain dict, a byte with no palette slot read
    as the color "x"."""
    names = [None] + palette(len(frame.blocks)) + ["x"] * 255
    return {
        (frame.base(u), axis): names[byte]
        for axis, block in enumerate(frame.blocks, start=1)
        for u, byte in enumerate(block) if byte
    }


class TestBlockCertifier:
    """The certifier over a frame's blocks gives the verdict of the per-edge
    kernel reference, on each build and on single-byte mutants of it."""

    @settings(max_examples=100, deadline=None)
    @given(certifier_cases(), st.data())
    def test_agrees_with_the_reference(self, case, data):
        box, mode, t = case
        core = box.shifted_core(t) if t is not None else None
        verify = (lambda c: verify_shifted_core(c, box, t)) if t is not None else (
            lambda c: verify_boundary_condition(c, box))
        good = build(box, mode, t)
        n, extra = box.n, 2 * box.n + 1
        doc = document_for_rect(box.origin, box.sizes, mode, good, t)
        assert serialize_coloring(doc) == reference.serialize_coloring(
            document_for_rect(box.origin, box.sizes, mode, decoded(good), t))
        masks = [_edge_mask(box.sizes, i) for i in range(n)]
        edges = [(i, u) for i, mask in enumerate(masks) for u, bit in enumerate(mask) if bit]
        holes = [(i, u) for i, mask in enumerate(masks) for u, bit in enumerate(mask) if not bit]
        ends = [(i, u) for i, u in edges
                if u // good.strides[i] % good.radices[i] in (0, good.radices[i] - 1)]
        i, u = data.draw(st.sampled_from(edges))
        mutants = [(i, u, slot) for slot in range(1, extra + 1)]  # every recolor
        mutants.append((i, u, 0))  # a deleted edge
        mutants.append((i, u, extra + 1))  # off the palette
        end = data.draw(st.sampled_from(ends))  # a wrong color on an adjacent edge
        mutants.append(end + (data.draw(st.integers(1, extra).filter(lambda b: b != end[0] + 1)),))
        if holes:  # a byte off the edge mask
            mutants.append(data.draw(st.sampled_from(holes)) + (data.draw(st.integers(1, extra)),))
        if core is not None:  # color n+1 off the core
            on_core = set(edges_in(core))
            off_core = [(i, u) for i, u in edges if (good.base(u), i + 1) not in on_core]
            mutants.append(data.draw(st.sampled_from(off_core)) + (extra,))
        for i, u, byte in [(0, 0, None)] + mutants:
            mutant = RectColoring(good.lows, good.radices, [bytearray(b) for b in good.blocks])
            if byte is not None:
                mutant.blocks[i][u] = byte
            plain = decoded(mutant)
            try:
                expected = reference.box_holds(plain, box, core)
            except InvalidInputError:
                with pytest.raises(InvalidInputError, match=re.escape(
                        f"first missing: {(mutant.base(u), i + 1)}")):
                    verify(mutant)
                with pytest.raises(InvalidInputError):
                    verify(plain)
                continue
            assert verify(mutant) == verify(plain) == expected, (i, u, byte)
            if byte is None:
                assert expected

    @pytest.mark.parametrize("box,t", [(Box((3, -1), (10, 10)), (2, 0)),
                                       (Box((0, 2, -5), (2, 2, 2)), (0, 0, 0))])
    def test_one_row_slabs(self, box, t, monkeypatch):
        """With each frame row its own slab, every recolor of every edge
        still gets the reference's verdict."""
        monkeypatch.setattr(rectcolor, "_SLAB", 1)
        good = color_shifted_core(box, t)
        core = box.shifted_core(t)
        for i, block in enumerate(good.blocks):
            for u in range(len(block)):
                for slot in range(1, 2 * box.n + 2) if block[u] else ():
                    mutant = RectColoring(good.lows, good.radices, [bytearray(b) for b in good.blocks])
                    mutant.blocks[i][u] = slot
                    expected = reference.box_holds(decoded(mutant), box, core)
                    assert verify_shifted_core(mutant, box, t) == expected, (i, u, slot)


def test_certifying_holds_few_bytes_per_edge():
    """Building and certifying a 1002^2 core (2M edges) from its blocks peaks
    under 16 bytes per edge; a dict of the edges costs about 156."""
    box = Box((0, 0), (1002, 1002))
    tracemalloc.start()
    try:
        coloring = color_core(box)
        assert verify_shifted_core(coloring, box, (0, 0))
        edges = len(coloring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edges == 2 * 1004 * 1003
    assert peak < 16 * edges
