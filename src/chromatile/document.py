"""Line-oriented text formats for colorings and layered results.

Text over binary: desk-scale colorings are small, and reviewers can
diff them.  Writers emit records in sorted order, so serialization is
byte-deterministic; readers validate that every edge appears exactly
once and that color names come from the declared legend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .errors import InvalidInputError
from .grid import Edge, Vertex
from .lattice import Vector
from .layered import LayeredResult
from .rectcolor import palette

COLORING_FORMAT = "chromatile/coloring/v1"
LAYERED_FORMAT = "chromatile/layered/v1"


def fmt_vec(v: Vector) -> str:
    return ",".join(str(x) for x in v)


def parse_vec(text: str) -> Vector:
    try:
        return tuple(int(p) for p in text.strip().split(","))
    except ValueError as exc:
        raise InvalidInputError(f"bad vector {text!r}") from exc


@dataclass
class ColoringDocument:
    """A rectangle or torus edge coloring plus the context that made it."""

    kind: str  # "rect" | "torus"
    n: int
    meta: dict[str, str]  # origin/sizes or moduli, mode, d, t, seed, offsets
    legend: list[str]
    coloring: dict[Edge, str]  # (base, axis) -> color name

    def __post_init__(self) -> None:
        if self.kind not in ("rect", "torus"):
            raise InvalidInputError(f"unknown document kind {self.kind!r}")


def document_for_rect(
    box_origin: Vector,
    sizes: Vector,
    mode: str,
    coloring: dict[Edge, str],
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
    legend = set(doc.legend)
    for edge, color in doc.coloring.items():
        if color not in legend:
            raise InvalidInputError(f"color {color} missing from the legend")
    lines.append("palette=" + ",".join(doc.legend))
    lines.append(f"edges={len(doc.coloring)}")
    lines += _edge_records(doc.coloring.items(), str)
    return "\n".join(lines) + "\n"


def _edge_records(
    items: Iterable[tuple[tuple[Vertex, object], str]], fmt_class: Callable[[object], str]
) -> list[str]:
    """One "base ; edge class ; color" line per edge, sorted by (base, class).

    The edge class is an axis or a step.  Records are grouped by base,
    so that each base and each class is formatted once.
    """
    by_base: dict[Vertex, list[tuple[object, str]]] = {}
    for (base, cls), color in items:
        by_base.setdefault(base, []).append((cls, color))
    class_text: dict[object, str] = {}
    lines = []
    for base in sorted(by_base):
        prefix = fmt_vec(base) + " ; "
        for cls, color in sorted(by_base[base]):
            text = class_text.get(cls)
            if text is None:
                text = class_text[cls] = fmt_class(cls)
            lines.append(f"{prefix}{text} ; {color}")
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


def _read(text: str, fmt: str) -> tuple[
    dict[str, str], list[str], list[str],
    Callable[[Optional[Vector]], Iterator[tuple[Vertex, str, str, str]]],
]:
    """The header, the shift= lines, the legend and the edge records of a document.

    Header and shift= lines come first, then the records.  Checks the
    format line and edges= against the record count at once.
    ``records(moduli)`` yields the records as (base, second field, color,
    line) and checks each as it goes: three fields, a base of dimension
    n, inside [0, q_i) on every axis when ``moduli`` is given, and a color
    from the legend.
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
    n = _field(header, "n")
    count = _field(header, "edges")
    if len(lines) != count:
        raise InvalidInputError(f"expected {count} edge records, found {len(lines)}")
    legend = [c for c in header.get("palette", "").split(",") if c]
    legal = set(legend)

    def records(moduli: Optional[Vector]) -> Iterator[tuple[Vertex, str, str, str]]:
        base_text, base = None, ()
        for line in lines:
            parts = [p.strip() for p in line.split(";")]
            if len(parts) != 3:
                raise InvalidInputError(f"bad edge record {line!r}")
            if parts[0] != base_text:  # written documents list a base's records together
                base_text, base = parts[0], parse_vec(parts[0])
                if len(base) != n:
                    raise InvalidInputError(f"record {line!r} does not fit dimension {n}")
                if moduli is not None:
                    for x, q in zip(base, moduli):
                        if not 0 <= x < q:
                            raise InvalidInputError(
                                f"record {line!r} has a base off the torus {fmt_vec(moduli)}"
                            )
            if parts[2] not in legal:
                raise InvalidInputError(f"color {parts[2]!r} not in the legend")
            yield base, parts[1], parts[2], line

    return header, shifts, legend, records


def parse_coloring_document(text: str) -> ColoringDocument:
    header, shifts, legend, records = _read(text, COLORING_FORMAT)
    if shifts:
        raise InvalidInputError("a coloring document has no shift= lines")
    n = _field(header, "n")
    kind = header.get("kind", "")
    moduli = _field(header, "moduli", parse_vec) if kind == "torus" else None
    if moduli is not None and len(moduli) != n:
        raise InvalidInputError(f"moduli= does not fit dimension {n}")
    if not set(legend) <= set(palette(n)):
        raise InvalidInputError(f"palette= names a color outside palette({n})")
    coloring: dict[Edge, str] = {}
    for base, axis_text, color, line in records(moduli):
        axis = _int(axis_text, line)
        if not 1 <= axis <= n:
            raise InvalidInputError(f"record {line!r} does not fit dimension {n}")
        key = (base, axis)
        if key in coloring:
            raise InvalidInputError(f"the edge of record {line!r} appears twice")
        coloring[key] = color
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
    lines += _edge_records(doc.coloring.items(), fmt_vec)
    return "\n".join(lines) + "\n"


def parse_layered_document(text: str) -> LayeredDocument:
    header, shift_lines, legend, records = _read(text, LAYERED_FORMAT)
    n = _field(header, "n")
    moduli = _field(header, "moduli", parse_vec)
    if len(moduli) != n:
        raise InvalidInputError(f"moduli= does not fit dimension {n}")
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
    coloring: dict[tuple[Vertex, Vector], str] = {}
    for base, step_text, color, line in records(moduli):
        step = parse_vec(step_text)
        if step not in steps:
            raise InvalidInputError(f"record {line!r} steps by no listed generator")
        key = (base, step)
        if key in coloring:
            raise InvalidInputError(f"the edge of record {line!r} appears twice")
        coloring[key] = color
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
