"""SVG rendering of 2-dimensional slices of colorings.

Vertices sit on a unit grid scaled to pixels, edges are colored
segments, and a legend maps the palette.  Higher-dimensional documents
must be sliced down to exactly two free axes first.  Output is fully
deterministic for identical inputs.
"""

from __future__ import annotations

from itertools import chain

from .document import ColoringDocument, _frame
from .errors import InvalidInputError

_UNIT = 40
_MARGIN = 60
_STUB = 0.3  # fraction of a unit used for wrap-around edge stubs

_HEXES = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#17becf", "#bcbd22", "#7f7f7f", "#aec7e8", "#ffbb78",
    "#98df8a", "#ff9896", "#c5b0d5", "#c49c94",
]


def _color_map(legend: list[str]) -> dict[str, str]:
    return {name: _HEXES[i % len(_HEXES)] for i, name in enumerate(legend)}


def render_svg(doc: ColoringDocument, slices: dict[int, int] | None = None) -> str:
    """Render the document, with ``slices`` pinning axes to values.

    The axes not pinned must number exactly two; the first free axis
    runs right, the second runs up.  The frame comes from the document
    header, as the reader takes it, and an edge off it raises.
    """
    slices = dict(slices or {})
    for ax in slices:
        if not 1 <= ax <= doc.n:
            raise InvalidInputError(f"slice axis {ax} out of range 1..{doc.n}")
    free = [ax for ax in range(1, doc.n + 1) if ax not in slices]
    if len(free) != 2:
        raise InvalidInputError(
            f"need exactly 2 free axes to render, have {len(free)} "
            f"(dimension {doc.n}, sliced {sorted(slices)})"
        )
    h_ax, v_ax = free

    ranges, name = _frame(doc.kind, doc.n, doc.meta)
    moduli = [r.stop for r in ranges] if doc.kind == "torus" else None
    # an edge past the slice filter holds the slice values, so those are
    # checked once here; if one lies off the frame, so does every such edge
    h_range, v_range = ranges[h_ax - 1], ranges[v_ax - 1]
    if not all(val in ranges[ax - 1] for ax, val in slices.items()):
        h_range = v_range = range(0)

    segments = []  # (x1, y1, x2, y2, color-name)
    for (base, axis), color in sorted(doc.coloring.items()):
        if slices and (axis in slices or any(base[ax - 1] != val for ax, val in slices.items())):
            continue
        x, y = base[h_ax - 1], base[v_ax - 1]
        if x not in h_range or y not in v_range or axis not in free:
            raise InvalidInputError(f"edge {(base, axis)} lies off {name} or has a class it lacks")
        dx = 1 if axis == h_ax else 0
        dy = 1 if axis == v_ax else 0
        wraps = moduli is not None and base[axis - 1] == moduli[axis - 1] - 1
        if wraps:
            # draw a stub leaving the frame and a stub entering at 0
            segments.append((x, y, x + dx * _STUB, y + dy * _STUB, color))
            ox = 0 if axis == h_ax else x
            oy = 0 if axis == v_ax else y
            segments.append((ox, oy, ox - dx * _STUB, oy - dy * _STUB, color))
        else:
            segments.append((x, y, x + dx, y + dy, color))

    if not segments:
        raise InvalidInputError("nothing to render in the requested slice")

    x1s, y1s, x2s, y2s, _ = zip(*segments)
    xs, ys = x1s + x2s, y1s + y2s
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)

    # pixel text once per distinct coordinate; the key holds the type, since
    # an int prints as 60 and a float of the same value as 60.0
    xt = {k: str(round(_MARGIN + (k[1] - x_lo) * _UNIT, 1)) for k in set(zip(map(type, xs), xs))}
    yt = {k: str(round(_MARGIN + (y_hi - k[1]) * _UNIT, 1)) for k in set(zip(map(type, ys), ys))}
    del xs, ys

    legend_w = 120
    width = int(2 * _MARGIN + (x_hi - x_lo) * _UNIT) + legend_w
    height = int(2 * _MARGIN + (y_hi - y_lo) * _UNIT)
    height = max(height, 2 * _MARGIN + len(doc.legend) * 18)

    colors = _color_map(doc.legend)
    tails = {
        name: f'stroke="{hex_}" stroke-width="4" stroke-linecap="round"/>'
        for name, hex_ in colors.items()
    }
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for x1, y1, x2, y2, name in segments:
        out.append(
            f'<line x1="{xt[type(x1), x1]}" y1="{yt[type(y1), y1]}" '
            f'x2="{xt[type(x2), x2]}" y2="{yt[type(y2), y2]}" {tails[name]}'
        )
    del segments  # the columns below hold all the dots need
    # small vertex dots on integer positions, in first-seen order
    for x, y in dict.fromkeys(chain.from_iterable(zip(zip(x1s, y1s), zip(x2s, y2s)))):
        if x == int(x) and y == int(y):
            out.append(
                f'<circle cx="{xt[type(x), x]}" cy="{yt[type(y), y]}" r="2.5" fill="#222"/>'
            )
    del x1s, y1s, x2s, y2s  # freed before the text is joined
    lx = width - legend_w + 10
    out.append(
        f'<text x="{lx}" y="{_MARGIN - 20}" font-family="monospace" '
        f'font-size="13">legend</text>'
    )
    for i, name in enumerate(doc.legend):
        yy = _MARGIN + i * 18
        out.append(
            f'<line x1="{lx}" y1="{yy}" x2="{lx + 24}" y2="{yy}" '
            f'stroke="{colors[name]}" stroke-width="4"/>'
        )
        out.append(
            f'<text x="{lx + 32}" y="{yy + 4}" font-family="monospace" '
            f'font-size="12">{name}</text>'
        )
    out.append("</svg>")
    out.append("")  # the closing newline, without copying the joined text
    return "\n".join(out)
