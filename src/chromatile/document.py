"""Line-oriented text formats for colorings and layered results.

Text over binary: desk-scale colorings are small, and reviewers can
diff them.  Writers walk a document's frame, its possible edge bases,
in sorted order, so serialization is byte-deterministic; readers check
that every edge lies on the frame, appears once and has a legend color.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from typing import Callable, Mapping, Optional, Sequence

from .errors import InvalidInputError
from .grid import Edge, Vertex
from .lattice import Vector, fmt_vec, parse_vec
from .layered import LayeredResult
from .rectcolor import RectColoring, palette

COLORING_FORMAT = "chromatile/coloring/v1"
LAYERED_FORMAT = "chromatile/layered/v1"


@dataclass
class ColoringDocument:
    """A rectangle or torus edge coloring plus the context that made it."""

    kind: str  # "rect" | "torus"
    n: int
    meta: dict[str, str]  # origin/sizes or moduli, mode, d, t, seed, offsets
    legend: list[str]
    coloring: Mapping[Edge, str]  # (base, axis) -> color name

    def __post_init__(self) -> None:
        if self.kind not in ("rect", "torus"):
            raise InvalidInputError(f"unknown document kind {self.kind!r}")


def document_for_rect(
    box_origin: Vector,
    sizes: Vector,
    mode: str,
    coloring: Mapping[Edge, str],
    t: Optional[Vector] = None,
) -> ColoringDocument:
    n = len(sizes)
    meta = {"origin": fmt_vec(box_origin), "sizes": fmt_vec(sizes), "mode": mode}
    if t is not None:
        meta["t"] = fmt_vec(t)
    return ColoringDocument("rect", n, meta, palette(n), coloring)


def document_for_torus(
    moduli: Vector,
    d: int,
    mode: str,
    coloring: dict[Edge, str],
    seed: Optional[int] = None,
    offsets: Optional[Vector] = None,
) -> ColoringDocument:
    n = len(moduli)
    meta = {"moduli": fmt_vec(moduli), "d": str(d), "mode": mode}
    if seed is not None:
        meta["seed"] = str(seed)
    if offsets is not None:
        meta["offsets"] = fmt_vec(offsets)
    return ColoringDocument("torus", n, meta, palette(n), coloring)


_META_ORDER = ["origin", "sizes", "moduli", "mode", "d", "t", "seed", "offsets"]


def serialize_coloring(doc: ColoringDocument) -> str:
    lines = [f"format={COLORING_FORMAT}", f"kind={doc.kind}", f"n={doc.n}"]
    for key in _META_ORDER:
        if key in doc.meta:
            lines.append(f"{key}={doc.meta[key]}")
    lines.append("palette=" + ",".join(doc.legend))
    lines.append(f"edges={len(doc.coloring)}")
    frame = _frame(doc.kind, doc.n, doc.meta)
    lines += _frame_records(doc.coloring, doc.legend, frame, range(1, doc.n + 1), str)
    return "\n".join(lines) + "\n"


def _frame(kind: str, n: int, meta: dict[str, str]) -> tuple[list[range], str]:
    """The ranges of a document's edge bases, and the frame's name:
    [0, q_i) on a torus, the box padded by one vertex on a rect."""
    if kind == "torus":
        moduli = _field(meta, "moduli", parse_vec)
        if len(moduli) != n:
            raise InvalidInputError(f"moduli= does not fit dimension {n}")
        if min(moduli) < 1:
            raise InvalidInputError(f"moduli= {fmt_vec(moduli)} has a modulus below 1")
        return [range(q) for q in moduli], f"the torus {fmt_vec(moduli)}"
    if kind != "rect":
        raise InvalidInputError(f"unknown document kind {kind!r}")
    origin, sizes = _field(meta, "origin", parse_vec), _field(meta, "sizes", parse_vec)
    if len(origin) != n or len(sizes) != n or min(sizes) < 1:
        raise InvalidInputError(f"origin= and sizes= need dimension {n} and sides of at least 1")
    name = f"the frame of the box at {fmt_vec(origin)} of sizes {fmt_vec(sizes)}"
    return [range(b - 1, b + a + 1) for b, a in zip(origin, sizes)], name


def _frame_records(coloring: Mapping, legend: list[str], frame: tuple[list[range], str],
                   classes: Sequence, fmt_class: Callable[[object], str]) -> list[str]:
    """One "base ; edge class ; color" line per edge, sorted by (base, class).

    The edge class is an axis or a step.  One loop walks the frame's bases
    in row-major order, which is sorted order, beside one column per
    class: the record's tail " ; class ; color" at every base, or None
    where no edge is based.  A rect coloring built on the frame gives its
    columns from its blocks, any other mapping by one lookup per (base,
    class) slot, so the cost grows with the frame, not with the edge count,
    and every CLI document covers its whole frame.  A color outside the
    legend, or an edge off the frame or of another class, whose record no
    reader accepts, raises InvalidInputError.
    """
    ranges, name = frame
    tails = [{color: f" ; {fmt_class(cls)} ; {color}" for color in legend} for cls in classes]
    if isinstance(coloring, RectColoring) and coloring.ranges == ranges:
        # a byte is a palette slot plus 1, and 0 means no edge
        columns = [map([None, *map(tail.get, palette(len(ranges)))].__getitem__, block)
                   for tail, block in zip(tails, coloring.blocks)]
    else:
        get = coloring.get
        columns = [map(tail.get, map(get, zip(product(*ranges), repeat(cls))))
                   for cls, tail in zip(classes, tails)]
    texts = map(",".join, product(*[[str(x) for x in r] for r in ranges]))
    lines = [text + tail for text, row in zip(texts, zip(*columns))
             for tail in row if tail is not None]
    if len(lines) != len(coloring):
        for color in coloring.values():
            if color not in legend:
                raise InvalidInputError(f"color {color} missing from the legend")
        key = next(k for k in coloring if k[1] not in classes or len(k[0]) != len(ranges)
                   or not all(map(range.__contains__, ranges, k[0])))
        raise InvalidInputError(f"edge {key} lies off {name} or has a class it lacks")
    return lines


def _field(header: dict[str, str], key: str, convert=int):
    """A header value converted, with InvalidInputError when missing or malformed."""
    if key not in header:
        raise InvalidInputError(f"missing {key}= header")
    try:
        return convert(header[key])
    except ValueError as exc:
        raise InvalidInputError(f"bad {key}= header {header[key]!r}") from exc


def _int(text: str, line: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise InvalidInputError(f"bad integer {text!r} in {line!r}") from exc


def _read(text: str, fmt: str) -> tuple[dict[str, str], list[str], list[str], list[str]]:
    """The header, the shift= lines, the legend and the edge record lines of a document.

    Header and shift= lines come first, then the records.  Checks the
    format line and edges= against the record count at once.
    """
    header: dict[str, str] = {}
    shifts: list[str] = []
    lines: list[str] = []
    for line in text.splitlines():
        if ";" in line and not line.startswith("shift="):
            lines.append(line)
        elif not line.strip():
            continue
        elif lines:
            raise InvalidInputError(f"line {line!r} follows the edge records")
        elif line.startswith("shift="):
            shifts.append(line[len("shift="):])
        elif "=" in line:
            key, value = line.split("=", 1)
            header[key.strip()] = value.strip()
        else:
            raise InvalidInputError(f"bad header line {line!r}")
    if header.get("format") != fmt:
        raise InvalidInputError(f"not a {fmt} document")
    _field(header, "n")
    count = _field(header, "edges")
    if len(lines) != count:
        raise InvalidInputError(f"expected {count} edge records, found {len(lines)}")
    legend = [c for c in header.get("palette", "").split(",") if c]
    return header, shifts, legend, lines


def _records(lines: list[str], legend: list[str], frame: tuple[list[range], str],
             parse_class: Callable[[str, str], object]) -> dict:
    """The coloring that the record lines hold.  Each record needs three fields,
    a base on the frame, a color from the legend, a class that
    ``parse_class(text, line)`` accepts and parses, and a new edge."""
    ranges, name = frame
    n = len(ranges)
    coloring, classes = {}, {}  # (base, class) -> color; class text -> class
    colors = {f" {c}": c for c in legend}  # the color field as written
    base_text = None
    for line in lines:
        parts = line.split(";")
        if len(parts) != 3:
            raise InvalidInputError(f"bad edge record {line!r}")
        text, cls_text, color_text = parts
        if text != base_text:  # written documents list a base's records together
            base_text, base = text, parse_vec(text)
            if len(base) != n:
                raise InvalidInputError(f"record {line!r} does not fit dimension {n}")
            if not all(map(range.__contains__, ranges, base)):
                raise InvalidInputError(f"record {line!r} has a base off {name}")
        color = colors.get(color_text)
        if color is None and (color := color_text.strip()) not in legend:
            raise InvalidInputError(f"color {color!r} not in the legend")
        cls = classes.get(cls_text)
        if cls is None:
            cls = classes[cls_text] = parse_class(cls_text.strip(), line)
        key = (base, cls)
        if key in coloring:
            raise InvalidInputError(f"the edge of record {line!r} appears twice")
        coloring[key] = color
    return coloring


def parse_coloring_document(text: str) -> ColoringDocument:
    header, shifts, legend, lines = _read(text, COLORING_FORMAT)
    if shifts:
        raise InvalidInputError("a coloring document has no shift= lines")
    n = _field(header, "n")
    kind = header.get("kind", "")
    frame = _frame(kind, n, header)
    if not set(legend) <= set(palette(n)):
        raise InvalidInputError(f"palette= names a color outside palette({n})")

    def axis_of(text: str, line: str) -> int:
        axis = _int(text, line)
        if not 1 <= axis <= n:
            raise InvalidInputError(f"record {line!r} does not fit dimension {n}")
        return axis

    coloring = _records(lines, legend, frame, axis_of)
    meta = {k: v for k, v in header.items() if k in _META_ORDER}
    return ColoringDocument(kind, n, meta, legend, coloring)


# ---------------------------------------------------------------------------
# layered documents
# ---------------------------------------------------------------------------

@dataclass
class LayeredDocument:
    n: int
    moduli: Vector
    generators: list[Vector]  # canonical pair representatives
    levels: int
    d: int
    alpha: int
    beta: int
    s: Vector
    k_sets: list[list[Vertex]]
    shifts: list[tuple[int, Vertex, int, int]]  # level, rep, region, a
    legend: list[str]
    coloring: dict[tuple[Vertex, Vector], str]  # (base, step) -> color name


def document_for_layered(result: LayeredResult) -> LayeredDocument:
    dec = result.dec
    generators = []
    for layer in dec.layers:
        generators.extend(layer.pairs())
    shifts = sorted(
        (lvl, rep, idx, a) for (lvl, rep, idx), a in result.shifts.items()
    )
    legend = sorted(set(result.coloring.values()))
    return LayeredDocument(
        n=len(result.moduli),
        moduli=result.moduli,
        generators=sorted(generators),
        levels=dec.level_count + 1,
        d=result.d,
        alpha=dec.alpha,
        beta=dec.beta,
        s=dec.s,
        k_sets=[sorted(ks) for ks in result.k_sets],
        shifts=shifts,
        legend=legend,
        coloring=result.coloring,
    )


def serialize_layered(doc: LayeredDocument) -> str:
    lines = [
        f"format={LAYERED_FORMAT}",
        f"n={doc.n}",
        f"moduli={fmt_vec(doc.moduli)}",
        "generators=" + "|".join(fmt_vec(g) for g in doc.generators),
        f"levels={doc.levels}",
        f"d={doc.d}",
        f"alpha={doc.alpha}",
        f"beta={doc.beta}",
        f"s={fmt_vec(doc.s)}",
    ]
    for level, pts in enumerate(doc.k_sets):
        lines.append(f"kset{level}=" + "|".join(fmt_vec(p) for p in pts))
    for level, rep, idx, a in doc.shifts:
        lines.append(f"shift={level} ; {fmt_vec(rep)} ; {idx} ; {a}")
    lines.append("palette=" + ",".join(doc.legend))
    lines.append(f"edges={len(doc.coloring)}")
    frame = [range(q) for q in doc.moduli], f"the torus {fmt_vec(doc.moduli)}"
    lines += _frame_records(doc.coloring, doc.legend, frame, sorted(set(doc.generators)), fmt_vec)
    return "\n".join(lines) + "\n"


def parse_layered_document(text: str) -> LayeredDocument:
    header, shift_lines, legend, lines = _read(text, LAYERED_FORMAT)
    n = _field(header, "n")
    moduli = _field(header, "moduli", parse_vec)
    frame = _frame("torus", n, header)
    levels = _field(header, "levels")
    k_sets = []
    for level in range(levels):
        raw = header.get(f"kset{level}", "")
        k_sets.append([parse_vec(p) for p in raw.split("|") if p])
    shifts = []
    for ln in shift_lines:
        parts = [p.strip() for p in ln.split(";")]
        if len(parts) != 4:
            raise InvalidInputError(f"bad shift line {ln!r}")
        level, rep, idx, a = parts
        shifts.append((_int(level, ln), parse_vec(rep), _int(idx, ln), _int(a, ln)))
    generators = [parse_vec(g) for g in _field(header, "generators", str).split("|") if g]
    steps = set(generators)

    def step_of(text: str, line: str) -> Vector:
        step = parse_vec(text)
        if step not in steps:
            raise InvalidInputError(f"record {line!r} steps by no listed generator")
        return step

    coloring = _records(lines, legend, frame, step_of)
    return LayeredDocument(
        n=n,
        moduli=moduli,
        generators=generators,
        levels=levels,
        d=_field(header, "d"),
        alpha=_field(header, "alpha"),
        beta=_field(header, "beta"),
        s=_field(header, "s", parse_vec),
        k_sets=k_sets,
        shifts=shifts,
        legend=legend,
        coloring=coloring,
    )
