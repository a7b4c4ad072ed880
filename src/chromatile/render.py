"""SVG rendering of 2-dimensional slices of colorings.

Vertices sit on a unit grid scaled to pixels, edges are colored
segments, and a legend maps the palette.  Higher-dimensional documents
must be sliced down to exactly two free axes first.  Output is fully
deterministic for identical inputs.
"""

from __future__ import annotations

from itertools import islice

from .document import ColoringDocument, _frame
from .errors import InvalidInputError

_UNIT = 40
_MARGIN = 60
_STUB = 0.3  # fraction of a unit used for wrap-around edge stubs
# Output lines are joined this many at a time, so that each piece stays
# within CPython's small-object allocator (512 bytes), whose arenas go
# back to the system once empty.  Larger pieces come from the C heap,
# which keeps freed space mapped, and the write of the returned text
# then adds a full copy on top of it.
_PIECE = 4

_HEXES = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#17becf", "#bcbd22", "#7f7f7f", "#aec7e8", "#ffbb78",
    "#98df8a", "#ff9896", "#c5b0d5", "#c49c94",
]


def _color_map(legend: list[str]) -> dict[str, str]:
    return {name: _HEXES[i % len(_HEXES)] for i, name in enumerate(legend)}


def _pieces(lines: list[str]) -> list[str]:
    return ["\n".join(lines[i:i + _PIECE]) for i in range(0, len(lines), _PIECE)]


def render_svg(doc: ColoringDocument, slices: dict[int, int] | None = None) -> str:
    """Render the document, with ``slices`` pinning axes to values.

    The axes not pinned must number exactly two; the first free axis
    runs right, the second runs up.  The frame comes from the document
    header, as the reader takes it, and an edge off it raises.

    Edges are drawn in sorted order, so the edges at one value of the
    first free axis form one frame row.  A first pass checks the edges
    and finds the drawing's extent; a second formats each row from pixel
    texts computed once per coordinate.
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
    hi, vi = h_ax - 1, v_ax - 1

    ranges, name = _frame(doc.kind, doc.n, doc.meta)
    h_range, v_range = ranges[hi], ranges[vi]
    # a wrap edge leaves the torus from the last coordinate of its axis
    h_wrap, v_wrap = (h_range.stop - 1, v_range.stop - 1) if doc.kind == "torus" else (None, None)
    # an edge past the slice filter holds the slice values, so those are
    # checked once here; if one lies off the frame, so does every such edge
    if not all(val in ranges[ax - 1] for ax, val in slices.items()):
        h_range = v_range = range(0)

    keys = []  # the (base, axis) keys drawn, in sorted order
    starts = []  # the index in keys of each row's first edge
    x = None
    for key in sorted(doc.coloring):
        base, axis = key
        if slices and (axis in slices or len(base) == doc.n
                       and any(base[ax - 1] != val for ax, val in slices.items())):
            continue
        if (len(base) != doc.n or base[hi] not in h_range or base[vi] not in v_range
                or axis not in free):
            raise InvalidInputError(f"edge {key} lies off {name} or has a class it lacks")
        if base[hi] != x:
            x = base[hi]
            starts.append(len(keys))
        keys.append(key)
    if not keys:
        raise InvalidInputError("nothing to render in the requested slice")
    rows = list(zip(starts, starts[1:] + [len(keys)]))

    # The extent, each extreme typed as the first segment end of its value:
    # a stub's end is a float, every other end an int.  A row is sorted by
    # (y, axis), so its last edge is its topmost, and a wrap edge, based on
    # the last coordinate of its axis, is the last edge of its row.
    lasts = [keys[stop - 1] for _, stop in rows]
    v_stubs = any(axis == v_ax and base[vi] == v_wrap for base, axis in lasts)
    y_lo = 0 - _STUB if v_stubs else min(keys[start][0][vi] for start in starts)
    y_hi = v_wrap + _STUB if v_stubs else max(base[vi] + (axis == v_ax) for base, axis in lasts)
    x_last = lasts[-1][0][hi]
    last_h = any(axis == h_ax for _, axis in keys[starts[-1]:])
    h_stubs = last_h and x_last == h_wrap
    x_lo = 0 - _STUB if h_stubs else keys[0][0][hi]
    x_hi = x_last + _STUB if h_stubs else x_last + last_h

    def x_text(x: float) -> str:
        return str(round(_MARGIN + (x - x_lo) * _UNIT, 1))

    def y_text(y: float) -> str:
        return str(round(_MARGIN + (y_hi - y) * _UNIT, 1))

    # pixel text once per integer coordinate; a stub's ends are floats on
    # both axes, and a float prints as 60.0 where the int prints as 60
    xs = range(h_range.start, h_range.stop + 1)
    ys = range(v_range.start, v_range.stop + 1)
    xt = {x: x_text(x) for x in xs}
    yt = {y: y_text(y) for y in ys}
    yf = {y: y_text(float(y)) for y in ys} if h_stubs else {}

    legend_w = 120
    width = int(2 * _MARGIN + (x_hi - x_lo) * _UNIT) + legend_w
    height = int(2 * _MARGIN + (y_hi - y_lo) * _UNIT)
    height = max(height, 2 * _MARGIN + len(doc.legend) * 18)

    colors = _color_map(doc.legend)
    tails = {
        name: f'" stroke="{hex_}" stroke-width="4" stroke-linecap="round"/>'
        for name, hex_ in colors.items()
    }
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # a vertex dot is one int code, (x - xs.start) * stride + y - ys.start,
    # kept in first-seen order as a dict key
    stride = len(ys)
    dots: dict[int, None] = {}
    for start, stop in rows:
        x = keys[start][0][hi]
        code = (x - xs.start) * stride - ys.start  # plus y: the code of (x, y)
        pre = f'<line x1="{xt[x]}" y1="'
        v_mid = f'" x2="{xt[x]}" y2="'
        if x == h_wrap:
            # an edge that wraps is a stub leaving the frame and a stub entering at 0
            h_mid = f'" x2="{x_text(x + _STUB)}" y2="'
            h_in = f'<line x1="{xt[0]}" y1="'
            h_in_mid = f'" x2="{x_text(0 - _STUB)}" y2="'
            h_in_code = (0 - xs.start) * stride - ys.start
        else:
            h_mid = f'" x2="{xt[x + 1]}" y2="'
        lines = []
        for key in keys[start:stop]:
            base, axis = key
            y = base[vi]
            tail = tails[doc.coloring[key]]
            dots[code + y] = None
            if axis == v_ax and y != v_wrap:
                lines.append(f'{pre}{yt[y]}{v_mid}{yt[y + 1]}{tail}')
                dots[code + y + 1] = None
            elif axis == v_ax:
                v_stub = f'" x2="{x_text(float(x))}" y2="'
                lines.append(f'{pre}{yt[y]}{v_stub}{y_text(y + _STUB)}{tail}\n'
                             f'{pre}{yt[0]}{v_stub}{y_text(0 - _STUB)}{tail}')
                dots[code] = None
            elif x != h_wrap:
                lines.append(f'{pre}{yt[y]}{h_mid}{yt[y]}{tail}')
                dots[code + y + stride] = None
            else:
                lines.append(f'{pre}{yt[y]}{h_mid}{yf[y]}{tail}\n'
                             f'{h_in}{yt[y]}{h_in_mid}{yf[y]}{tail}')
                dots[h_in_code + y] = None
        out += _pieces(lines)
    # small vertex dots on integer positions, formatted a stride at a time
    # so that few one-dot strings live at once
    cx, cy = list(xt.values()), list(yt.values())
    codes = iter(dots)
    while chunk := [f'<circle cx="{cx[c // stride]}" cy="{cy[c % stride]}" r="2.5" fill="#222"/>'
                    for c in islice(codes, stride)]:
        out += _pieces(chunk)
    del keys, dots  # freed before the text is joined
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
