"""File formats, rendering, and the command-line surface."""

import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chromatile
from chromatile.cli import main
from chromatile.document import (
    ColoringDocument,
    LayeredDocument,
    document_for_layered,
    document_for_rect,
    document_for_torus,
    parse_coloring_document,
    parse_layered_document,
    serialize_coloring,
    serialize_layered,
)
from chromatile.errors import InvalidInputError
from chromatile.grid import Box, Torus
from chromatile.lattice import GeneratorSet, parse_vec
from chromatile.layered import run_pipeline
from chromatile.lowerbound import respects_matching
from chromatile.rectcolor import (
    color_bc1,
    palette,
    verify_boundary_condition,
    verify_shifted_core,
)
from chromatile.render import render_svg
from chromatile.tiling import brick_tiling, color_tiling, verify_tiling_coloring
from reference import read_coloring as reference_read_coloring
from reference import render_svg as reference_render_svg
from reference import serialize_coloring as reference_serialize_coloring
from reference import serialize_layered as reference_serialize_layered
from reference import verify_proper


def _ids_without_message(cases):
    """The ids pytest gives the cases without their expected message."""
    return ["-".join(case[:-1]) for case in cases]


# (kind, text replaced, replacement, the reader's error message)
MALFORMED_COLORING = [
    ("rect", "1 ; 1 ; 2", "1 ; x ; 2", "bad integer 'x' in '1 ; x ; 2'"),
    ("rect", "palette=c1,1,2", "palette=x5,c1,1,2",  # not a color name
     "palette= names a color outside palette(1)"),
    ("rect", "palette=c1,1,2", "palette=c1,1,2,c2",  # outside palette(1)
     "palette= names a color outside palette(1)"),
    ("rect", "n=1\n", "", "missing n= header"),
    ("rect", "n=1\n", "n=x\n", "bad n= header 'x'"),
    ("rect", "edges=4\n", "edges=four\n", "bad edges= header 'four'"),
    ("torus", "moduli=13\n", "", "missing moduli= header"),
    ("torus", "moduli=13\n", "moduli=13,13\n", "moduli= does not fit dimension 1"),
    ("torus", "n=1\nmoduli=13\n", "n=2\nmoduli=0,3\n", "moduli= 0,3 has a modulus below 1"),
    ("torus", "n=1\nmoduli=13\n", "n=2\nmoduli=-2,3\n", "moduli= -2,3 has a modulus below 1"),
    ("torus", "\n0 ; 1 ; 1\n", "\n13 ; 1 ; 1\n",  # base off the torus
     "record '13 ; 1 ; 1' has a base off the torus 13"),
    ("torus", "\n0 ; 1 ; 1\n", "\n-1 ; 1 ; 1\n",
     "record '-1 ; 1 ; 1' has a base off the torus 13"),
    ("rect", "palette=", "shift=0 ; 0 ; 5 ; 0\npalette=",  # layered-only line
     "a coloring document has no shift= lines"),
    ("rect", "2 ; 1 ; c1\n", "2 ; 1 ; c1\nmode=core\n",  # header after records
     "line 'mode=core' follows the edge records"),
    ("rect", "\n0 ; 1 ; 1\n", "\n0 ; 1 ; 1 ; 1\n", "bad edge record '0 ; 1 ; 1 ; 1'"),
    ("rect", "\n0 ; 1 ; 1\n", "\n0 ; 1 ; c9\n", "color 'c9' not in the legend"),
    ("rect", "\n0 ; 1 ; 1\n", "\n0 ; 2 ; 1\n", "record '0 ; 2 ; 1' does not fit dimension 1"),
    ("rect", "\n0 ; 1 ; 1\n", "\n0,0 ; 1 ; 1\n",
     "record '0,0 ; 1 ; 1' does not fit dimension 1"),
    ("rect", "\n0 ; 1 ; 1\n", "\nx ; 1 ; 1\n", "bad vector 'x'"),
    # a rect document needs its box, and its bases on the box's frame
    ("rect", "kind=rect\n", "", "unknown document kind ''"),
    ("rect", "origin=0\n", "", "missing origin= header"),
    ("rect", "sizes=2\n", "", "missing sizes= header"),
    ("rect", "origin=0\n", "origin=0,0\n",
     "origin= and sizes= need dimension 1 and sides of at least 1"),
    ("rect", "sizes=2\n", "sizes=2,2\n",
     "origin= and sizes= need dimension 1 and sides of at least 1"),
    ("rect", "sizes=2\n", "sizes=0\n",
     "origin= and sizes= need dimension 1 and sides of at least 1"),
    ("rect", "\n0 ; 1 ; 1\n", "\n99 ; 1 ; 1\n",
     "record '99 ; 1 ; 1' has a base off the frame of the box at 0 of sizes 2"),
    ("rect", "\n-1 ; 1 ; c1\n", "\n-2 ; 1 ; c1\n",
     "record '-2 ; 1 ; c1' has a base off the frame of the box at 0 of sizes 2"),
]

# (text replaced, replacement, the reader's error message)
MALFORMED_LAYERED = [
    ("n=1\n", "", "missing n= header"),
    ("n=1\n", "n=x\n", "bad n= header 'x'"),
    ("d=6\n", "d=six\n", "bad d= header 'six'"),
    ("generators=1|2\n", "", "missing generators= header"),
    ("shift=0 ; 0 ; 5 ; 0", "shift=0 ; 0 ; 5", "bad shift line '0 ; 0 ; 5'"),
    ("shift=0 ; 0 ; 5 ; 0", "shift=0 ; 0 ; x ; 0", "bad integer 'x' in '0 ; 0 ; x ; 0'"),
    ("\n0 ; 1 ; p1@0\n", "\n0,0 ; 1 ; p1@0\n",  # base of the wrong dimension
     "record '0,0 ; 1 ; p1@0' does not fit dimension 1"),
    ("\n0 ; 1 ; p1@0\n", "\n0 ; 3 ; p1@0\n",  # step not in generators=
     "record '0 ; 3 ; p1@0' steps by no listed generator"),
    ("\n0 ; 1 ; p1@0\n", "\n0 ; 1 ; p1@0\nd=6\n",  # header after records
     "line 'd=6' follows the edge records"),
    ("\n0 ; 1 ; p1@0\n", "\n37 ; 1 ; p1@0\n",  # base off the torus
     "record '37 ; 1 ; p1@0' has a base off the torus 37"),
    ("\n0 ; 1 ; p1@0\n", "\n-1 ; 1 ; p1@0\n",
     "record '-1 ; 1 ; p1@0' has a base off the torus 37"),
    ("moduli=37\n", "moduli=37,37\n", "moduli= does not fit dimension 1"),
    ("moduli=37\n", "moduli=0\n", "moduli= 0 has a modulus below 1"),
]


def _layered_37():
    s = GeneratorSet.from_vectors([(1,), (2,)])
    return document_for_layered(run_pipeline(s, (37,), 6).result)


class TestColoringDocuments:
    def test_rect_roundtrip(self):
        box = Box((-1, -1), (2, 2))
        doc = document_for_rect(box.origin, box.sizes, "bc1", color_bc1(box))
        text = serialize_coloring(doc)
        back = parse_coloring_document(text)
        assert back.coloring == doc.coloring
        assert back.meta == doc.meta
        assert serialize_coloring(back) == text  # bit-identical reserialization
        # identical verdicts after the round trip
        assert verify_proper(back.coloring)
        assert verify_boundary_condition(back.coloring, box)

    def test_torus_roundtrip(self):
        tiling = brick_tiling(Torus((13, 13)), 6, offsets=(0, 3))
        coloring = color_tiling(tiling, mode="core")
        doc = document_for_torus((13, 13), 6, "core", coloring, offsets=(0, 3))
        text = serialize_coloring(doc)
        back = parse_coloring_document(text)
        assert back.coloring == coloring
        assert serialize_coloring(back) == text
        # the tiling context is recoverable from the header, and the
        # parsed coloring re-verifies to the same verdict
        moduli = parse_vec(back.meta["moduli"])
        rebuilt = brick_tiling(
            Torus(moduli), int(back.meta["d"]), offsets=parse_vec(back.meta["offsets"])
        )
        assert rebuilt == tiling
        assert verify_tiling_coloring(back.coloring, rebuilt, back.meta["mode"]).ok

    def test_validation(self):
        box = Box((0,), (2,))
        doc = document_for_rect(box.origin, box.sizes, "bc1", color_bc1(box))
        text = serialize_coloring(doc)
        with pytest.raises(InvalidInputError):
            parse_coloring_document(text.replace("; c1", "; c9", 1))
        duplicated = text + text.splitlines()[-1] + "\n"
        with pytest.raises(InvalidInputError):
            parse_coloring_document(duplicated)
        with pytest.raises(InvalidInputError):
            parse_coloring_document("format=wrong\n")

    @pytest.mark.parametrize("recolor", [False, True], ids=["same-color", "other-color"])
    @pytest.mark.parametrize("kind", ["rect", "torus", "layered"])
    def test_duplicate_record(self, kind, recolor):
        # the second record is overwritten with the first one's edge, so
        # edges= still matches and the duplicate check is what fails
        if kind == "layered":
            s = GeneratorSet.from_vectors([(1,), (2,)])
            text = serialize_layered(document_for_layered(run_pipeline(s, (37,), 6).result))
            parse = parse_layered_document
        else:
            if kind == "rect":
                box = Box((0, 0), (2, 2))
                doc = document_for_rect(box.origin, box.sizes, "bc1", color_bc1(box))
            else:
                coloring = color_tiling(brick_tiling(Torus((13, 13)), 6))
                doc = document_for_torus((13, 13), 6, "plain", coloring)
            text = serialize_coloring(doc)
            parse = parse_coloring_document
        lines = text.splitlines()
        first = next(i for i, ln in enumerate(lines) if ";" in ln and "=" not in ln)
        edge, color = lines[first].rsplit(" ; ", 1)
        if recolor:
            legend = next(ln for ln in lines if ln.startswith("palette="))
            color = next(c for c in legend[len("palette="):].split(",") if c != color)
        lines[first + 1] = f"{edge} ; {color}"
        with pytest.raises(InvalidInputError) as err:
            parse("\n".join(lines) + "\n")
        assert str(err.value) == f"the edge of record {lines[first + 1]!r} appears twice"

    @pytest.mark.parametrize("kind,old,new,message", MALFORMED_COLORING,
                             ids=_ids_without_message(MALFORMED_COLORING))
    def test_malformed_coloring_document(self, kind, old, new, message):
        if kind == "rect":
            box = Box((0,), (2,))
            doc = document_for_rect(box.origin, box.sizes, "bc1", color_bc1(box))
        else:
            coloring = color_tiling(brick_tiling(Torus((13,)), 6))
            doc = document_for_torus((13,), 6, "plain", coloring)
        text = serialize_coloring(doc)
        assert old in text
        with pytest.raises(InvalidInputError) as err:
            parse_coloring_document(text.replace(old, new, 1))
        assert str(err.value) == message

    @pytest.mark.parametrize("old,new,message", MALFORMED_LAYERED,
                             ids=_ids_without_message(MALFORMED_LAYERED))
    def test_malformed_layered_document(self, old, new, message):
        text = serialize_layered(_layered_37())
        assert old in text
        with pytest.raises(InvalidInputError) as err:
            parse_layered_document(text.replace(old, new, 1))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "kind,key,message",
        [
            ("rect", ((99,), 1), "edge ((99,), 1) lies off the frame of the box at 0 of sizes 2"),
            ("rect", ((3,), 1), "edge ((3,), 1) lies off the frame of the box at 0 of sizes 2"),
            ("rect", ((0,), 2), "edge ((0,), 2) lies off the frame of the box at 0 of sizes 2"),
            ("torus", ((13,), 1), "edge ((13,), 1) lies off the torus 13"),
            ("torus", ((0, 0), 1), "edge ((0, 0), 1) lies off the torus 13"),
            ("layered", ((37,), (1,)), "edge ((37,), (1,)) lies off the torus 37"),
            ("layered", ((0,), (3,)), "edge ((0,), (3,)) lies off the torus 37"),
        ],
    )
    def test_writer_refuses_an_edge_off_the_frame(self, kind, key, message):
        # the old writers emitted such a record, and the reader refused it
        if kind == "layered":
            doc, write, reference = _layered_37(), serialize_layered, reference_serialize_layered
            doc.coloring = {**doc.coloring, key: doc.legend[0]}
        else:
            if kind == "rect":
                box = Box((0,), (2,))
                doc = document_for_rect(box.origin, box.sizes, "bc1", color_bc1(box))
            else:
                doc = document_for_torus((13,), 6, "plain", color_tiling(brick_tiling(Torus((13,)), 6)))
            write, reference = serialize_coloring, reference_serialize_coloring
            doc.coloring = {**doc.coloring, key: doc.legend[0]}
        with pytest.raises(InvalidInputError) as err:
            write(doc)
        assert str(err.value) == f"{message} or has a class it lacks"
        with pytest.raises(InvalidInputError):
            (parse_layered_document if kind == "layered" else parse_coloring_document)(
                reference(doc))

    def test_layered_writer_checks_the_legend(self):
        # the old writer printed the record, and the reader refused it
        doc = _layered_37()
        doc.coloring = {**doc.coloring, ((0,), (1,)): "zz"}
        with pytest.raises(InvalidInputError) as err:
            serialize_layered(doc)
        assert str(err.value) == "color zz missing from the legend"
        with pytest.raises(InvalidInputError):
            parse_layered_document(reference_serialize_layered(doc))

    @pytest.mark.parametrize("kind", ["rect", "torus", "layered"])
    def test_whitespace_in_records(self, kind):
        """Records padded with blanks and tabs read as the written ones do."""
        if kind == "layered":
            doc, write, parse = _layered_37(), serialize_layered, parse_layered_document
        else:
            if kind == "rect":
                box = Box((-1, 0, 1), (2, 2, 2))
                doc = document_for_rect(box.origin, box.sizes, "bc1", color_bc1(box))
            else:
                coloring = color_tiling(brick_tiling(Torus((13, 13)), 6), mode="core")
                doc = document_for_torus((13, 13), 6, "core", coloring)
            write, parse = serialize_coloring, parse_coloring_document
        variants = [
            lambda b, c, k: f" {b.replace(',', ', ')} ;{c};  {k} ",
            lambda b, c, k: f"{b};{c};{k}",
            lambda b, c, k: f"\t{b} ; {c}\t;{k}\t",
            lambda b, c, k: f"{b} ; {c} ; {k}",
        ]
        lines = write(doc).splitlines()
        for i, line in enumerate(lines):
            if ";" in line and "=" not in line:
                lines[i] = variants[i % len(variants)](*line.split(" ; "))
        text = "\n".join(lines) + "\n"
        assert parse(text).coloring == reference_read_coloring(text) == doc.coloring
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_writers_match_reference(self, data):
        """Byte-identical to the sorting writers on sparse colorings of
        random frames, and read back to the same coloring."""
        n = data.draw(st.integers(1, 3))
        legend = palette(n)
        layered = data.draw(st.booleans())
        kind, meta, ranges = data.draw(frames(n, torus_only=layered))
        if layered:
            vectors = st.tuples(*[st.integers(-3, 3)] * n).filter(any)
            classes = data.draw(st.lists(vectors, min_size=1, max_size=4, unique=True))
        else:
            classes = range(1, n + 1)
        slots = [(base, cls) for base in product(*ranges) for cls in classes]
        chosen = data.draw(st.lists(st.sampled_from(slots), max_size=len(slots), unique=True))
        coloring = {e: data.draw(st.sampled_from(legend)) for e in chosen}
        if layered:
            moduli = tuple(len(r) for r in ranges)
            doc = LayeredDocument(n, moduli, classes, 1, 2, 1, 1, (1,) * n, [[]], [], legend,
                                  coloring)
            text = serialize_layered(doc)
            assert text == reference_serialize_layered(doc)
            assert parse_layered_document(text).coloring == coloring
        else:
            doc = ColoringDocument(kind, n, meta, legend, coloring)
            text = serialize_coloring(doc)
            assert text == reference_serialize_coloring(doc)
            assert parse_coloring_document(text).coloring == coloring
        assert reference_read_coloring(text) == coloring

    def test_layered_roundtrip(self):
        s = GeneratorSet.from_vectors([(1,), (2,)])
        run = run_pipeline(s, (6277,))
        doc = document_for_layered(run.result)
        text = serialize_layered(doc)
        back = parse_layered_document(text)
        assert back.coloring == doc.coloring
        assert back.k_sets == doc.k_sets
        assert back.shifts == doc.shifts
        assert serialize_layered(back) == text


@st.composite
def frames(draw, n, torus_only=False):
    """A torus or rect frame of dimension n: its kind, its meta and the
    ranges of its edge bases, [0, q_i) or the box padded by one."""
    if torus_only or draw(st.booleans()):
        moduli = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        meta = {"moduli": ",".join(map(str, moduli)), "mode": "core"}
        return "torus", meta, [range(q) for q in moduli]
    origin = draw(st.lists(st.integers(-4, 2), min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    meta = {"origin": ",".join(map(str, origin)), "sizes": ",".join(map(str, sizes)),
            "mode": "bc1"}
    return "rect", meta, [range(b - 1, b + a + 1) for b, a in zip(origin, sizes)]


@st.composite
def render_cases(draw):
    """A rect or torus document, n <= 3, on a random subset of its edges,
    so that some axes do not wrap, and slices to render it with."""
    n = draw(st.sampled_from([1, 2, 2, 2, 3, 3, 3]))
    legend = palette(n)
    kind, meta, ranges = draw(frames(n))
    edges = [(base, ax) for base in product(*ranges) for ax in range(1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(edges), min_size=1, max_size=len(edges), unique=True))
    coloring = {e: draw(st.sampled_from(legend)) for e in chosen}
    doc = ColoringDocument(kind, n, meta, legend, coloring)
    if n == 3:
        ax = draw(st.integers(1, 3))
        slices = {ax: draw(st.sampled_from(ranges[ax - 1]))}
    elif draw(st.integers(0, 3)) == 0:
        slices = {draw(st.integers(0, n + 1)): 0}  # an error: too few free axes or off range
    else:
        slices = {}
    return doc, slices


def _render_or_error(render, doc, slices):
    try:
        return render(doc, slices)
    except InvalidInputError as exc:
        return f"InvalidInputError: {exc}"


class TestRender:
    @settings(max_examples=300, deadline=None)
    @given(render_cases())
    def test_matches_reference(self, case):
        """Byte-identical to the per-segment reference renderer, errors included."""
        doc, slices = case
        assert _render_or_error(render_svg, doc, slices) == _render_or_error(
            reference_render_svg, doc, slices)

    def test_two_dimensional(self, reference_2x2_box, reference_2x2_coloring):
        doc = document_for_rect(
            reference_2x2_box.origin,
            reference_2x2_box.sizes,
            "bc1",
            reference_2x2_coloring,
        )
        svg = render_svg(doc)
        assert svg.startswith("<svg")
        assert svg.count("<line") == 24 + len(doc.legend)  # edges + legend swatches
        assert render_svg(doc) == svg  # deterministic

    def test_one_dimensional_needs_slicing_error(self):
        box = Box((0,), (3,))
        doc = document_for_rect(box.origin, box.sizes, "bc1", color_bc1(box))
        with pytest.raises(InvalidInputError):
            render_svg(doc)

    def test_three_dimensional_slice(self):
        box = Box((0, 0, 0), (2, 2, 2))
        doc = document_for_rect(box.origin, box.sizes, "bc1", color_bc1(box))
        with pytest.raises(InvalidInputError):
            render_svg(doc)  # three free axes
        svg = render_svg(doc, {3: 1})
        assert "<line" in svg

    def test_torus_without_moduli_rejected(self):
        doc = ColoringDocument("torus", 2, {}, palette(2), {((0, 0), 1): "1"})
        with pytest.raises(InvalidInputError) as err:
            render_svg(doc)
        assert str(err.value) == "missing moduli= header"

    @pytest.mark.parametrize("key,slices", [
        (((5, 0), 1), {}),
        (((0, -1), 2), {}),
        (((0, 0, 7), 1), {3: 7}),  # off the frame on the sliced axis only
        (((0, 0), 3), {}),  # no such axis
        (((0, 0), 0), {}),
        (((0, 0), 1), {3: 0}),  # a base without the sliced axis
        (((0, 0, 0), 1), {}),  # a base of three coordinates on a 2-D torus
    ])
    def test_edge_off_the_frame_rejected(self, key, slices):
        n = max(slices, default=2)
        meta = {"moduli": ",".join(["3"] * n)}
        doc = ColoringDocument("torus", n, meta, palette(n), {key: "1"})
        with pytest.raises(InvalidInputError) as err:
            render_svg(doc, slices)
        assert str(err.value) == (
            f"edge {key} lies off the torus {meta['moduli']} or has a class it lacks")

    def test_torus_wrap_stubs(self):
        tiling = brick_tiling(Torus((13, 13)), 6)
        doc = document_for_torus((13, 13), 6, "plain", color_tiling(tiling))
        svg = render_svg(doc)
        assert svg.count("<line") > 2 * 13 * 13  # wrap edges render as two stubs


@pytest.fixture
def genset_file(tmp_path):
    path = tmp_path / "gen.txt"
    path.write_text("n=1\n1\n2\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def genset2d_file(tmp_path):
    path = tmp_path / "gen2.txt"
    path.write_text("n=2\n1,0\n0,1\n1,1\n", encoding="utf-8")
    return str(path)


@st.composite
def lowerbound_calls(draw):
    """``lowerbound`` arguments after the subcommand, with the text of a
    genset file to pass, or None for the standard set.

    Moduli of n <= 3 axes and at most 16 vertices, now and then a zero;
    a genset of one to three vectors, closed under negation or not, with
    or without --symmetrize, now and then of another dimension; and any
    search with at most one budget, which may be below 1, not a number,
    or one the search does not take.
    """
    n = draw(st.integers(1, 3))
    moduli, room = [], 16
    for _ in range(n):
        q = 0 if draw(st.integers(0, 15)) == 0 else draw(st.integers(min(room, 3), room))
        moduli.append(q)
        room //= max(q, 1)
    search = draw(st.sampled_from(["chi", "labelings", "matchings"]))
    argv = ["--moduli", ",".join(map(str, moduli)), "--search", search]
    genset = None
    if draw(st.booleans()):
        dim = draw(st.sampled_from([n] * 7 + [n % 3 + 1]))
        vectors = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim), min_size=1, max_size=3))
        if draw(st.booleans()):
            vectors += [tuple(-x for x in v) for v in vectors]
        genset = f"n={dim}\n" + "".join(",".join(map(str, v)) + "\n" for v in vectors)
        if draw(st.booleans()):
            argv.append("--symmetrize")
    own = {"chi": "--k-max", "labelings": "--limit"}.get(search)
    budget = draw(st.sampled_from([own, own, None, "--k-max", "--limit"]))
    if budget:
        argv += [budget, draw(st.sampled_from([*map(str, range(-1, 9)), "two"]))]
    return argv, genset


@st.composite
def color_rect_calls(draw):
    """``color-rect`` arguments after the subcommand: sides 0..7 on n <= 3
    axes, any mode, and now and then an --origin, --t or --odd-axis,
    each of which may be of the wrong length, not a number, or one the
    mode does not take.  --t and --odd-axis mostly come with the mode
    that takes them, and the core modes get a cube half the time."""
    n = draw(st.integers(1, 3))

    def vector(low, high):
        length = draw(st.sampled_from([n] * 5 + [n % 3 + 1]))
        text = ",".join(str(draw(st.integers(low, high))) for _ in range(length))
        return draw(st.sampled_from([text] * 9 + [text + "x"]))

    mode = draw(st.sampled_from(["bc1", "bc2", "core", "shifted"]))
    sizes = vector(0, 7)
    if mode in ("core", "shifted") and draw(st.booleans()):
        sizes = ",".join([sizes.split(",")[0]] * n)
    argv = ["--sizes", sizes, "--mode", mode]

    def now_and_then(own_mode):
        return draw(st.integers(0, 9)) < (8 if mode == own_mode else 1)

    for flag, low, high, own_mode in (("--origin", -5, 5, mode), ("--t", -6, 6, "shifted")):
        if now_and_then(own_mode):
            value = vector(low, high)
            argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    if now_and_then("bc2"):
        argv += ["--odd-axis", str(draw(st.integers(-1, 4)))]
    return argv


@st.composite
def layered_calls(draw):
    """``layered`` arguments after the genset, with the genset text: on
    n <= 2 axes, mostly the unit vectors, and up to three more vectors,
    closed under negation; moduli up to 24; and a marker distance
    override that is feasible, too small, or not of the form 4k+2."""
    n = draw(st.integers(1, 2))
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    vectors = draw(st.sampled_from([units] * 4 + [[]]))
    vectors += draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                             min_size=0 if vectors else 1, max_size=3))
    vectors += [tuple(-x for x in v) for v in vectors]
    genset = f"n={n}\n" + "".join(",".join(map(str, v)) + "\n" for v in vectors)
    moduli = ",".join(str(draw(st.integers(3, 24) | st.integers(1, 24))) for _ in range(n))
    d = draw(st.sampled_from([2, 6, 10, 7, 0, -2]))
    argv = ["--moduli", moduli, "--d-override", str(d)]
    if draw(st.booleans()):
        argv.append("--symmetrize")
    return argv, genset


@st.composite
def color_torus_calls(draw):
    """``color-torus`` arguments after the subcommand: moduli 0..14 on
    n <= 3 axes, a marker distance that tiles, is too large, or is below
    2, either mode, and now and then a --seed, --offsets (which may be
    negative or not a number) or both, which is an error."""
    n = draw(st.integers(1, 3))
    moduli = ",".join(str(draw(st.integers(0, 14))) for _ in range(n))
    d = draw(st.sampled_from([2, 3, 4, 5, 6, 10, 0, -2]))
    argv = ["--moduli", moduli, "--d", str(d), "--mode", draw(st.sampled_from(["plain", "core"]))]
    placement = draw(st.sampled_from(["seed", "offsets", "both", None]))
    if placement in ("seed", "both"):
        argv += ["--seed", str(draw(st.integers(-3, 99)))]
    if placement in ("offsets", "both"):
        offsets = ",".join(str(draw(st.integers(-5, 20))) for _ in range(draw(st.integers(1, 4))))
        argv.append(f"--offsets={draw(st.sampled_from([offsets] * 9 + [offsets + 'x']))}")
    return argv


# header values that no reader takes, or that change what the document says
BAD_HEADER_VALUES = ["", "x", "0", "-1", "1,2,3,4", "c1,c1", "chromatile/layered/v1"]


@st.composite
def decompose_texts(draw):
    """A generating-set file for ``decompose``: n <= 3 and up to four
    vectors, closed under negation or not, now and then with an ``n=``
    line that is missing, not a number or below 1, and a vector of the
    wrong dimension or not a vector at all."""
    n = draw(st.integers(1, 3))
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    vectors = draw(st.sampled_from([units, []]))
    vectors += draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=4))
    if draw(st.booleans()):
        vectors += [tuple(-x for x in v) for v in vectors]
    lines = [",".join(map(str, v)) for v in vectors]
    if draw(st.integers(0, 4)) == 0:
        bad = draw(st.sampled_from(["1,x", "1,,2", ",".join(["1"] * (n + 1)), "#", "n=2"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    head = draw(st.sampled_from([f"n={n}"] * 6 + ["n=x", "n=0", "n=-1", "n", ""]))
    return "\n".join([head, *lines]) + "\n"


@st.composite
def render_documents(draw):
    """A small written coloring document, a rect colored by bc1 or a
    torus tiled at d = 2, with at most one record dropped, duplicated or
    recolored, or one header line edited or dropped; and random --slice
    values, now and then not of the form axis=value."""
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        box = Box(tuple(draw(st.integers(-2, 2)) for _ in range(n)),
                  tuple(draw(st.integers(1, 3)) for _ in range(n)))
        doc = document_for_rect(box.origin, box.sizes, "bc1", color_bc1(box))
    else:
        moduli = tuple(draw(st.integers(2, 5)) for _ in range(n))
        coloring = color_tiling(brick_tiling(Torus(moduli), 2), mode="plain")
        doc = document_for_torus(moduli, 2, "plain", coloring)
    lines = serialize_coloring(doc).splitlines()
    records = [i for i, line in enumerate(lines) if ";" in line]
    mutation = draw(st.sampled_from(["none", "drop", "duplicate", "recolor", "header"]))
    i = draw(st.sampled_from(records))
    if mutation == "drop":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
        if draw(st.booleans()):  # keep edges= in step, so the reader meets the copy
            lines = [f"edges={len(records) + 1}" if line.startswith("edges=") else line
                     for line in lines]
    elif mutation == "recolor":
        base, cls, _ = lines[i].split(";")
        color = draw(st.sampled_from(palette(n) + ["c9", "", "0"]))
        lines[i] = f"{base};{cls}; {color}"
    elif mutation == "header":
        j = draw(st.integers(0, records[0] - 1))
        key = lines[j].split("=", 1)[0]
        edited = draw(st.sampled_from([None] + [f"{key}={v}" for v in BAD_HEADER_VALUES]))
        lines[j:j + 1] = [] if edited is None else [edited]
    slices = []
    for _ in range(draw(st.integers(0, 2))):
        pin = f"{draw(st.integers(-1, 4))}={draw(st.integers(-2, 6))}"
        slices += ["--slice", draw(st.sampled_from([pin] * 9 + ["x=1", "1"]))]
    return "\n".join(lines) + "\n", slices


def _recertify(text):
    """Certify a printed coloring document from its own header alone: a
    rect on the box of origin= and sizes= with the shift of t=, a torus
    on the brick tiling rebuilt from moduli=, d= and seed= or offsets=."""
    doc = parse_coloring_document(text)
    meta = doc.meta
    if doc.kind == "rect":
        box = Box(parse_vec(meta["origin"]), parse_vec(meta["sizes"]))
        if meta["mode"] == "core":
            return verify_shifted_core(doc.coloring, box, (0,) * doc.n)
        if meta["mode"] == "shifted":
            return verify_shifted_core(doc.coloring, box, parse_vec(meta["t"]))
        return verify_boundary_condition(doc.coloring, box)
    tiling = brick_tiling(
        Torus(parse_vec(meta["moduli"])),
        int(meta["d"]),
        offsets=parse_vec(meta["offsets"]) if "offsets" in meta else None,
        seed=int(meta["seed"]) if "seed" in meta else None,
    )
    return verify_tiling_coloring(doc.coloring, tiling, meta["mode"]).ok


def _call(argv):
    """main(argv) with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# runs main on its arguments with the address space capped at 2 GiB
CAPPED_MAIN = """
import resource, sys
limit = 2 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
from chromatile.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [
        # more frame bytes than an index can hold
        ["color-rect", "--sizes", "10000000000,10000000000", "--mode", "bc1"],
        # more than the cap: a 3 GB frame
        ["color-rect", "--sizes", "3000000000", "--mode", "bc1"],
        ["color-torus", "--moduli", "100000000000,100000000000", "--d", "10"],
    ],
    ids=["rect-index", "rect-memory", "torus-memory"],
)
def test_oversized_input_is_infeasible(argv):
    """Parameters whose data cannot be held end in one line and exit 3, not
    a traceback, in a child process whose address space is capped."""
    env = {"PYTHONPATH": str(Path(chromatile.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", CAPPED_MAIN, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("infeasible: ")
    assert len(done.stderr.splitlines()) == 1


class TestCli:
    def test_decompose(self, genset_file, capsys):
        assert main(["decompose", genset_file, "--symmetrize"]) == 0
        out = capsys.readouterr().out
        assert "d=3138" in out and "k_1=1" in out

    def test_asymmetric_without_flag_is_error(self, genset_file, capsys):
        assert main(["decompose", genset_file]) == 1

    def test_missing_file(self, capsys):
        assert main(["decompose", "/nonexistent/file"]) == 1

    def test_color_rect_and_render(self, tmp_path, capsys):
        out = tmp_path / "c.txt"
        svg = tmp_path / "c.svg"
        assert main([
            "color-rect", "--sizes", "2,2", "--origin=-1,-1", "--mode", "bc1",
            "--out", str(out),
        ]) == 0
        assert main(["render", "--in", str(out), "--out", str(svg)]) == 0
        assert svg.read_text(encoding="utf-8").startswith("<svg")

    @pytest.mark.parametrize(
        "body,extra",
        [
            (b"edges=1\n0 ; x ; c1\n", []),
            (b"edges=1\n0 ; 1 ; c1\n", ["--slice", "x=1"]),
            (b"edges=1\n0 ; 1 ; \xff\n", []),  # not UTF-8
            (b"edges=1\n0,0,1 ; 1 ; c1\n", ["--slice", "3=0", "--slice", "3=1"]),
        ],
    )
    def test_render_malformed_input(self, body, extra, tmp_path, capsys):
        # the first record's base sets the document's dimension
        n = body.split(b"\n")[1].count(b",") + 1
        box = f"origin={','.join(['0'] * n)}\nsizes={','.join(['1'] * n)}"
        header = f"format=chromatile/coloring/v1\nkind=rect\nn={n}\n{box}\npalette={','.join(palette(n))}"
        doc = tmp_path / "bad.txt"
        doc.write_bytes(header.encode() + b"\n" + body)
        assert main(["render", "--in", str(doc), *extra]) == 1
        assert "error:" in capsys.readouterr().err

    def test_core_on_odd_sides_is_infeasible(self, capsys):
        assert main(["color-rect", "--sizes", "3,3", "--mode", "core"]) == 3

    def test_color_torus_and_bad_moduli(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        assert main([
            "color-torus", "--moduli", "13,13", "--d", "6", "--mode", "core",
            "--out", str(out),
        ]) == 0
        assert main(["color-torus", "--moduli", "5,13", "--d", "6"]) == 3

    def test_layered_cli(self, genset_file, genset2d_file, tmp_path, capsys):
        out = tmp_path / "l.txt"
        code = main([
            "layered", "--genset", genset2d_file, "--symmetrize",
            "--moduli", "37,37", "--d-override", "18", "--out", str(out),
        ])
        assert code == 0
        assert "colors=7" in capsys.readouterr().out
        assert main([
            "layered", "--genset", genset_file, "--symmetrize",
            "--moduli", "10",
        ]) == 3

    def test_lowerbound_cli(self, capsys):
        assert main(["lowerbound", "--moduli", "3,3", "--search", "chi"]) == 0
        assert "chromatic_index=5" in capsys.readouterr().out
        assert main(["lowerbound", "--moduli", "3", "--search", "labelings"]) == 0
        assert "respecting_labelings=0" in capsys.readouterr().out
        assert main(["lowerbound", "--moduli", "4", "--search", "matchings"]) == 0
        assert "found" in capsys.readouterr().out

    def test_lowerbound_rejects_a_bad_witness(self, monkeypatch, capsys):
        good = {(0,): (1,), (1,): (-1,), (2,): (1,), (3,): (-1,)}
        bad = {(i,): (1,) for i in range(4)}
        monkeypatch.setattr("chromatile.cli.search_respecting_labelings",
                            lambda *args, **kwargs: [good, bad])
        assert main(["lowerbound", "--moduli", "4", "--search", "labelings"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "breaks a matching pattern" in captured.err

    @pytest.mark.parametrize(
        "moduli,extra,answer",
        [
            ("23,23", [], "chromatic_index=5"),
            ("24,24", [], "chromatic_index=4"),
            ("7,7,7", [], "chromatic_index=7"),
            ("8,8,8", [], "chromatic_index=6"),
            ("6,5", [], "chromatic_index=4"),  # generators of even and odd order
            ("23,23", ["--k-max", "4"], "chromatic_index=>4"),
        ],
    )
    def test_lowerbound_chi_on_large_tori(self, moduli, extra, answer, capsys):
        """Tori of over a thousand edges answer at the default recursion limit."""
        assert main(["lowerbound", "--moduli", moduli, "--search", "chi", *extra]) == 0
        assert capsys.readouterr().out == answer + "\n"

    def test_lowerbound_labelings_on_a_large_torus(self, capsys):
        """A witness on 2,500 vertices, found at the default recursion limit,
        that respects every matching pattern."""
        assert main([
            "lowerbound", "--moduli", "50,50", "--search", "labelings", "--limit", "1",
        ]) == 0
        head, witness = capsys.readouterr().out.splitlines()
        assert head == "patterns=12 respecting_labelings=>=1"
        phi = {}
        for pair in witness.removeprefix("witness: ").split():
            v, g = (tuple(map(int, p.split(","))) for p in pair.split("->"))
            phi[v] = g
        assert len(phi) == 2500
        assert respects_matching(Torus((50, 50)), phi, GeneratorSet.standard(2))

    @settings(max_examples=300, deadline=None)
    @given(lowerbound_calls())
    def test_lowerbound_fuzz(self, tmp_path_factory, call):
        """Every call ends in an exit code, and a failing one prints nothing
        to stdout."""
        argv, genset = call
        if genset is not None:
            path = tmp_path_factory.getbasetemp() / "fuzz-genset.txt"
            path.write_text(genset, encoding="utf-8")
            argv = ["--genset", str(path), *argv]
        code, out, _ = _call(["lowerbound", *argv])
        assert code in (0, 1, 2, 3)
        if code:
            assert out == ""

    @settings(max_examples=300, deadline=None)
    @given(color_rect_calls())
    def test_color_rect_fuzz(self, argv):
        """Every call ends in an exit code, a failing one prints nothing to
        stdout, and the document a passing one prints certifies from its
        own header."""
        code, out, _ = _call(["color-rect", *argv])
        assert code in (0, 1, 2, 3)
        if code:
            assert out == ""
        else:
            assert _recertify(out)

    @settings(max_examples=300, deadline=None)
    @given(layered_calls())
    def test_layered_fuzz(self, tmp_path_factory, call):
        """Every call ends in an exit code, a failing one prints nothing to
        stdout, and a passing one ends its report with the verified line."""
        argv, genset = call
        path = tmp_path_factory.getbasetemp() / "fuzz-layered.txt"
        path.write_text(genset, encoding="utf-8")
        code, out, _ = _call(["layered", "--genset", str(path), *argv])
        assert code in (0, 1, 2, 3)
        if code:
            assert out == ""
        else:
            assert out.endswith("verified: proper, total, palette bound, zero confinement\n")

    @settings(max_examples=300, deadline=None)
    @given(color_torus_calls())
    def test_color_torus_fuzz(self, argv):
        """Every call ends in an exit code, a failing one prints nothing to
        stdout, and the document a passing one prints certifies from its
        own header."""
        code, out, _ = _call(["color-torus", *argv])
        assert code in (0, 1, 2, 3)
        if code:
            assert out == ""
        else:
            assert _recertify(out)

    @settings(max_examples=300, deadline=None)
    @given(decompose_texts(), st.booleans())
    def test_decompose_fuzz(self, tmp_path_factory, text, symmetrize):
        """Every call ends in an exit code, and a failing one prints nothing
        to stdout."""
        path = tmp_path_factory.getbasetemp() / "fuzz-decompose.txt"
        path.write_text(text, encoding="utf-8")
        code, out, _ = _call(["decompose", str(path)] + ["--symmetrize"] * symmetrize)
        assert code in (0, 1, 2, 3)
        if code:
            assert out == ""

    @settings(max_examples=300, deadline=None)
    @given(render_documents())
    def test_render_fuzz(self, tmp_path_factory, case):
        """Every call ends in an exit code, and a failing one prints nothing
        to stdout."""
        text, slices = case
        path = tmp_path_factory.getbasetemp() / "fuzz-render.txt"
        path.write_text(text, encoding="utf-8")
        code, out, _ = _call(["render", "--in", str(path), *slices])
        assert code in (0, 1, 2, 3)
        if code:
            assert out == ""

    def test_core_shift_out_of_range_names_level_and_d(self, genset2d_file):
        code, out, err = _call([
            "layered", "--genset", genset2d_file, "--symmetrize",
            "--moduli", "13,13", "--d-override", "6",
        ])
        assert (code, out) == (3, "")
        assert all(part in err for part in ("(6, 6)", "admissible range", "level 0", "d = 6"))

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["--sizes", "4,4"], 3),  # no odd side
            (["--sizes", "4,5", "--odd-axis", "1"], 3),  # the side along 1 is even
            (["--sizes", "4,5", "--odd-axis", "0"], 1),
            (["--sizes", "4,5", "--odd-axis", "3"], 1),
        ],
    )
    def test_bc2_axis_errors(self, argv, code):
        assert _call(["color-rect", "--mode", "bc2", *argv])[:2] == (code, "")

    def test_bc2_default_axis_is_the_first_odd_one(self):
        default = _call(["color-rect", "--sizes", "4,5", "--mode", "bc2"])
        explicit = _call(["color-rect", "--sizes", "4,5", "--mode", "bc2", "--odd-axis", "2"])
        assert default[0] == explicit[0] == 0
        assert default[1] == explicit[1] != ""

    def test_bad_vectors_are_named(self, tmp_path):
        code, out, err = _call(["color-torus", "--moduli", "1x,13", "--d", "6"])
        assert (code, out) == (1, "") and "'1x,13'" in err
        genset = tmp_path / "gen.txt"
        genset.write_text("n=2\n1,0\n1,x\n", encoding="utf-8")
        code, out, err = _call(["layered", "--genset", str(genset), "--moduli", "13,13"])
        assert (code, out) == (1, "") and "'1,x'" in err

    def test_color_conflict_is_a_verification_failure(self, force_conflict, capsys):
        assert main(["color-torus", "--moduli", "13,13", "--d", "6", "--mode", "core"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verification failure: edge ")
        assert " vs " in captured.err

    @pytest.mark.parametrize("mode,sizes", [("bc1", "6,6"), ("bc2", "5,6"), ("core", "6,6")])
    def test_shift_outside_shifted_mode_is_invalid(self, mode, sizes, tmp_path, capsys):
        out = tmp_path / "r.txt"
        assert main([
            "color-rect", "--sizes", sizes, "--mode", mode, "--t", "2,0", "--out", str(out),
        ]) == 1
        assert "--t" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--search", "labelings", "--limit", "0"],
            ["--search", "labelings", "--limit", "-1"],
            ["--search", "chi", "--k-max", "0"],
            ["--search", "chi", "--k-max", "-1"],
        ],
    )
    def test_lowerbound_budget_below_one_is_invalid(self, argv, capsys):
        assert main(["lowerbound", "--moduli", "4", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["color-rect", "--sizes", "3,4", "--mode", "bc1", "--odd-axis", "1"],
            ["lowerbound", "--moduli", "3,3", "--search", "chi", "--limit", "5"],
            ["lowerbound", "--moduli", "4", "--search", "labelings", "--k-max", "9"],
            ["lowerbound", "--moduli", "4", "--search", "chi", "--symmetrize"],
        ],
    )
    def test_flag_outside_its_mode_is_invalid(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        flag = next(a for a in reversed(argv) if a.startswith("--"))
        assert f"error: {flag} applies only to" in captured.err

    def test_negative_vector_after_a_space(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        assert main([
            "color-rect", "--sizes", "10,10", "--mode", "shifted", "--t", "-2,0",
            "--origin", "-3,-1", "--out", str(out),
        ]) == 0
        doc = parse_coloring_document(out.read_text(encoding="utf-8"))
        box = Box((-3, -1), (10, 10))
        assert verify_shifted_core(doc.coloring, box, (-2, 0))
        torus = tmp_path / "t.txt"
        assert main([
            "color-torus", "--moduli", "13,13", "--d", "6", "--offsets", "-1,3",
            "--out", str(torus),
        ]) == 0
        # a negative value that is not a vector is still invalid input
        assert main(["color-rect", "--sizes", "-2,2", "--mode", "bc1"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["color-rect", "--mode", "bc1"],
            ["color-rect", "--sizes", "2,2", "--mode", "plaid"],
            ["color-torus", "--moduli", "13,13", "--d", "six"],
            ["lowerbound", "--moduli", "3,3", "--search", "chi", "--bogus"],
            # color-torus has no way to take a core shift
            ["color-torus", "--moduli", "13,13", "--d", "6", "--mode", "shifted"],
        ],
    )
    def test_usage_errors_are_invalid_input(self, argv, capsys):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["color-rect", "--help"]) == 0
        assert "--sizes" in capsys.readouterr().out

    def test_determinism_bytes(self, genset_file, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert main([
                "color-torus", "--moduli", "13", "--d", "6", "--mode", "core",
                "--seed", "5", "--out", str(path),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()
