"""Output checker, written apart from the program.

It parses the documents the CLI writes with its own reader and checks
them against properties every correct output must have: totality,
properness at every vertex, the palette bound, the boundary condition,
confinement of the extra color to cores it recomputes itself, and
locality on tori.  Lower-bound outputs are checked against facts proved
here (odd order, Vizing) and against a perfect-matching count from its
own transfer-matrix DP.  It calls none of the program's verifiers.
"""

from __future__ import annotations

import os
import re
import xml.etree.ElementTree as ET

import numpy as np


class CheckError(Exception):
    """An output violates a property the method guarantees."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _vec(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise CheckError(f"bad vector {text!r}") from None


# ---------------------------------------------------------------------------
# document reading
# ---------------------------------------------------------------------------

def split_document(text: str, fmt: str) -> tuple[dict[str, str], str, int]:
    """Header fields, record body and declared record count.

    The layered format's repeated ``shift=`` lines are skipped: no check
    relies on the constructor's record of its shift choices.
    """
    head, sep, rest = text.partition("\nedges=")
    _require(bool(sep), "document has no edges= line")
    count_text, _, body = rest.partition("\n")
    header: dict[str, str] = {}
    for line in head.split("\n"):
        key, eq, value = line.partition("=")
        _require(bool(eq), f"bad header line {line!r}")
        if key != "shift":
            _require(key not in header, f"header key {key} repeated")
            header[key] = value
    _require(header.get("format") == fmt, f"not a {fmt} document")
    try:
        count = int(count_text)
    except ValueError:
        raise CheckError(f"bad edges= line {count_text!r}") from None
    _require(body.count("\n") == count and (count == 0 or body.endswith("\n")),
             f"expected {count} record lines")
    return header, body, count


def parse_records(body: str, count: int, width: int, legend: list[str]):
    """Integer columns and color ids (indices into ``legend``) of the records."""
    tokens = body.replace(";", " ").replace(",", " ").split()
    _require(len(tokens) == count * width, "edge records have the wrong number of fields")
    table = np.array(tokens).reshape(count, width)
    try:
        numbers = table[:, :-1].astype(np.int64)
    except ValueError:
        raise CheckError("non-integer coordinate in an edge record") from None
    names, ids = np.unique(table[:, -1], return_inverse=True)
    unknown = sorted(set(names.tolist()) - set(legend))
    _require(not unknown, f"colors {unknown} are not in the legend")
    index = np.array([legend.index(name) for name in names.tolist()], dtype=np.int16)
    return numbers, index[ids.reshape(-1)]


def proper(incident: list[np.ndarray]) -> tuple[bool, tuple]:
    """Whether no vertex sees a color twice; -1 marks a missing edge."""
    stack = np.sort(np.stack(incident), axis=0)
    clash = (stack[1:] == stack[:-1]) & (stack[1:] >= 0)
    hit = clash.any(axis=0)
    if hit.any():
        return False, tuple(int(x) for x in np.argwhere(hit)[0])
    return True, ()


def fill(shape: tuple[int, ...], index: tuple[np.ndarray, ...], colors: np.ndarray) -> np.ndarray:
    """Color array with each record's color at its index; duplicates rejected."""
    for axis, (idx, size) in enumerate(zip(index, shape)):
        _require(bool(((idx >= 0) & (idx < size)).all()), f"record coordinate {axis} out of range")
    flat = np.ravel_multi_index(index, shape)
    _require(np.unique(flat).size == flat.size, "an edge appears twice")
    col = np.full(shape, -1, dtype=np.int16)
    col[index] = colors
    return col


def standard_palette(n: int) -> list[str]:
    return [f"c{i}" for i in range(1, n + 1)] + [str(j) for j in range(1, n + 2)]


# ---------------------------------------------------------------------------
# tori
# ---------------------------------------------------------------------------

def segment_lengths(q: int, d: int) -> list[int]:
    """q as parts of d and d+1 vertices: fewest d+1 parts, d parts first."""
    y = q % d
    while y * (d + 1) <= q:
        if (q - y * (d + 1)) % d == 0:
            return [d] * ((q - y * (d + 1)) // d) + [d + 1] * y
        y += d
    raise CheckError(f"{q} is not a sum of {d} and {d + 1}")


def brick_regions(moduli: tuple[int, ...], d: int, offsets: tuple[int, ...]):
    """(origin, sizes) of the brick tiling the CLI documents for --offsets.

    The last axis is cut into slabs; slab j is tiled one dimension lower,
    shifted by offsets[j mod len], with the offsets rotated one step for
    the lower dimensions.
    """
    offs = tuple(offsets) or (0,)

    def build(mods, offs_now, shift):
        q = mods[-1]
        pos, slabs = shift % q, []
        for p in segment_lengths(q, d):
            slabs.append((pos, p))
            pos = (pos + p) % q
        if len(mods) == 1:
            return [((o,), (c - 1,)) for o, c in slabs]
        out = []
        rotated = offs_now[1:] + offs_now[:1]
        for j, (o, c) in enumerate(slabs):
            for sub_o, sub_s in build(mods[:-1], rotated, offs_now[j % len(offs_now)]):
                out.append((sub_o + (o,), sub_s + (c - 1,)))
        return out

    return build(tuple(moduli), offs, offs[0] if len(moduli) == 1 else 0)


def _wrapped(origin: int, count: int, q: int) -> np.ndarray:
    return (origin + np.arange(count)) % q


def read_torus(text: str):
    header, body, count = split_document(text, "chromatile/coloring/v1")
    _require(header.get("kind") == "torus", "not a torus document")
    n = int(header["n"])
    legend = header.get("palette", "").split(",")
    numbers, colors = parse_records(body, count, n + 2, legend)
    return header, n, legend, numbers, colors


def check_torus(text: str, params: dict) -> None:
    header, n, legend, numbers, colors = read_torus(text)
    moduli, d, offsets = params["moduli"], params["d"], params["offsets"]
    _require(_vec(header.get("moduli", "")) == moduli, "moduli header differs from the call")
    _require(header.get("d") == str(d) and header.get("mode") == "core",
             "d/mode header differs from the call")
    _require(_vec(header.get("offsets", "")) == offsets, "offsets header differs from the call")
    _require(legend == standard_palette(n), f"legend {legend} is not the 2n+1 palette")

    # totality: n * |V| records, one per (axis, base)
    volume = int(np.prod(moduli))
    _require(len(colors) == n * volume, f"{len(colors)} edges, expected n*|V| = {n * volume}")
    axes = numbers[:, n] - 1
    col = fill((n,) + moduli, (axes,) + tuple(numbers[:, i] for i in range(n)), colors)
    _require(bool((col >= 0).all()), "some torus edge is uncolored")

    ok, where = proper([col[a] for a in range(n)] + [np.roll(col[a], 1, axis=a) for a in range(n)])
    _require(ok, f"vertex {where} sees a color twice")
    _require(len(np.unique(col)) <= 2 * n + 1, "more than 2n+1 colors")

    regions = brick_regions(moduli, d, offsets)
    cover = np.zeros(moduli, dtype=np.int32)
    allowed = np.zeros(col.shape, dtype=bool)
    for origin, sizes in regions:
        _require(all(a + 1 in (d, d + 1) for a in sizes), f"region {origin} has a bad width")
        cover[np.ix_(*[_wrapped(o, a + 1, q) for o, a, q in zip(origin, sizes, moduli)])] += 1
        if all(a % 2 == 0 for a in sizes):
            core = [o + a // 2 - 1 for o, a in zip(origin, sizes)]
            for ax in range(n):
                idx = [_wrapped(c, 2 if j == ax else 3, q) for j, (c, q) in enumerate(zip(core, moduli))]
                allowed[ax][np.ix_(*idx)] = True
    _require(bool((cover == 1).all()), "recomputed regions do not partition the torus")
    escaped = np.argwhere((col == legend.index(str(n + 1))) & ~allowed)
    _require(len(escaped) == 0, f"extra color outside the cores at (axis, base) {escaped[:1].tolist()}")

    # locality: equal-size regions carry the same coloring at the origin
    by_size: dict[tuple, bytes] = {}
    for origin, sizes in regions:
        local = []
        for ax in range(n):
            idx = [_wrapped(o, a + (0 if j == ax else 1), q)
                   for j, (o, a, q) in enumerate(zip(origin, sizes, moduli))]
            local.append(col[ax][np.ix_(*idx)].tobytes())
        key = b"|".join(local)
        _require(by_size.setdefault(sizes, key) == key,
                 f"region at {origin} is colored unlike other {sizes} regions")


def check_svg(svg: str, doc_text: str) -> None:
    """Every torus edge drawn once (wrap edges as two stubs) in its legend color."""
    header, n, legend, numbers, colors = read_torus(doc_text)
    _require(n == 2, "render checks cover 2-D documents only")
    moduli = _vec(header["moduli"])
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        raise CheckError(f"SVG does not parse: {exc}") from None
    children = [(el.tag.rpartition("}")[2], el) for el in root]
    hex_of, drawn, dots = {}, {}, 0
    for i, (tag, el) in enumerate(children):
        following = children[i + 1] if i + 1 < len(children) else (None, None)
        if tag == "line" and following[0] == "text":
            hex_of[following[1].text] = el.get("stroke")
        elif tag == "line":
            drawn[el.get("stroke")] = drawn.get(el.get("stroke"), 0) + 1
        elif tag == "circle":
            dots += 1
    _require(list(hex_of) == legend, "SVG legend differs from the document legend")
    axes = numbers[:, n] - 1
    wraps = numbers[np.arange(len(axes)), axes] == np.array(moduli)[axes] - 1
    expected: dict[str, int] = {}
    for cid, name in enumerate(legend):
        segs = int((colors == cid).sum() + ((colors == cid) & wraps).sum())
        if segs:
            expected[hex_of[name]] = expected.get(hex_of[name], 0) + segs
    _require(drawn == expected, "SVG segments do not match the document's edges and colors")
    _require(dots == int(np.prod(moduli)), "SVG does not mark every vertex")


# ---------------------------------------------------------------------------
# rectangles
# ---------------------------------------------------------------------------

def check_rect(text: str, params: dict) -> None:
    header, body, count = split_document(text, "chromatile/coloring/v1")
    _require(header.get("kind") == "rect", "not a rectangle document")
    sizes, origin, mode, t = params["sizes"], params["origin"], params["mode"], params["t"]
    n = len(sizes)
    _require(header.get("n") == str(n), "dimension header differs from the call")
    _require(_vec(header.get("sizes", "")) == sizes and _vec(header.get("origin", "")) == origin,
             "box header differs from the call")
    _require(header.get("mode") == mode, "mode header differs from the call")
    _require((t is None and "t" not in header) or (t is not None and _vec(header["t"]) == t),
             "shift header differs from the call")
    legend = header.get("palette", "").split(",")
    _require(legend == standard_palette(n), f"legend {legend} is not the 2n+1 palette")
    numbers, colors = parse_records(body, count, n + 2, legend)

    # local coordinates L = base - origin + 1; along axis i the box and its
    # adjacent edges have L_i in [0, a_i + 1] and L_j in [1, a_j + 1]; one
    # more layer of padding keeps np.roll from wrapping real edges around
    shape = tuple(a + 3 for a in sizes)
    local = tuple(numbers[:, i] - origin[i] + 1 for i in range(n))
    col = fill((n,) + shape, (numbers[:, n] - 1,) + local, colors)
    grids = np.indices(shape, sparse=True)
    expected = np.zeros(col.shape, dtype=bool)
    adjacent = np.zeros(col.shape, dtype=bool)
    for ax in range(n):
        inside = np.ones(shape, dtype=bool)
        for j in range(n):
            inside &= (grids[j] >= (0 if j == ax else 1)) & (grids[j] <= sizes[j] + 1)
        expected[ax] = inside
        adjacent[ax] = inside & ((grids[ax] == 0) | (grids[ax] == sizes[ax] + 1))
    _require(bool(((col >= 0) == expected).all()),
             "records are not exactly the box edges and their adjacent edges")

    ok, where = proper([col[a] for a in range(n)] + [np.roll(col[a], 1, axis=a) for a in range(n)])
    _require(ok, f"vertex {where} (local) sees a color twice")

    used = set(np.unique(col[col >= 0]).tolist())
    extra = legend.index(str(n + 1))
    if mode == "bc2":
        _require(extra not in used, "bc2 coloring uses the extra color n+1")
    _require(len(used) <= (2 * n if mode == "bc2" else 2 * n + 1), "palette bound exceeded")

    for ax in range(n):
        _require(bool((col[ax][adjacent[ax]] == legend.index(f"c{ax + 1}")).all()),
                 f"an adjacent edge along axis {ax + 1} is not colored c{ax + 1}")

    if mode in ("core", "shifted"):
        shift = t if t is not None else (0,) * n
        core = [a // 2 + s for a, s in zip(sizes, shift)]  # local core origin
        allowed = np.zeros(col.shape, dtype=bool)
        for ax in range(n):
            allowed[ax][tuple(slice(c, c + (2 if j == ax else 3)) for j, c in enumerate(core))] = True
        escaped = (col == extra) & ~allowed
        _require(not escaped.any(), "extra color outside the (shifted) core")


# ---------------------------------------------------------------------------
# layered colorings
# ---------------------------------------------------------------------------

def canonical(v: tuple[int, ...]) -> tuple[int, ...]:
    """The lex-positive one of v, -v."""
    first = next(x for x in v if x)
    return v if first > 0 else tuple(-x for x in v)


def check_layered(text: str, params: dict, stdout: str | None = None) -> None:
    header, body, count = split_document(text, "chromatile/layered/v1")
    moduli = params["moduli"]
    n = len(moduli)
    reps = sorted({canonical(tuple(v)) for v in params["vectors"]})
    _require(header.get("n") == str(n) and _vec(header.get("moduli", "")) == moduli,
             "n/moduli header differs from the call")
    _require([_vec(g) for g in header.get("generators", "").split("|")] == reps,
             "generators header differs from the input set")
    legend = header.get("palette", "").split(",")
    numbers, colors = parse_records(body, count, 2 * n + 1, legend)

    # totality: one record for every pair {x, x + u}, u a representative
    volume = int(np.prod(moduli))
    _require(count == len(reps) * volume, f"{count} edges, expected {len(reps) * volume}")
    steps = [tuple(row) for row in np.unique(numbers[:, n:], axis=0).tolist()]
    _require(steps == reps, f"edge steps {steps} are not the input set's representatives")
    step_index = np.zeros(len(numbers), dtype=np.int64)
    for r, u in enumerate(reps):
        step_index[(numbers[:, n:] == np.array(u)).all(axis=1)] = r
    col = fill((len(reps),) + moduli, (step_index,) + tuple(numbers[:, i] for i in range(n)), colors)

    shifted = [np.roll(col[r], u, axis=tuple(range(n))) for r, u in enumerate(reps)]
    ok, where = proper([col[r] for r in range(len(reps))] + shifted)
    _require(ok, f"vertex {where} sees a color twice")
    _require(len(np.unique(col)) <= 2 * len(reps) + 1, "more than |S|+1 colors")

    # each step belongs to one level: all its other colors are name@level
    _require("0" in legend, "legend has no shared color 0")
    zero = legend.index("0")
    level_of = []
    for r in range(len(reps)):
        names = {legend[c] for c in np.unique(col[r]).tolist() if c != zero}
        levels = {name.rpartition("@")[2] for name in names}
        _require(len(levels) == 1 and all("@" in name for name in names),
                 f"step {reps[r]} carries colors of several levels: {sorted(names)}")
        level_of.append(levels.pop())

    # color 0 stays inside its level's core set; core sets are disjoint
    cores = {}
    for key, value in header.items():
        if key.startswith("kset"):
            mask = np.zeros(moduli, dtype=bool)
            pts = [_vec(p) for p in value.split("|") if p]
            if pts:
                mask[tuple(np.array(pts).T)] = True
            _require(mask.sum() == len(pts), f"{key} lists a vertex twice")
            cores[key[4:]] = mask
    _require(int(sum(m.astype(np.int8) for m in cores.values()).max()) <= 1,
             "core sets of two levels intersect")
    for r, u in enumerate(reps):
        at = col[r] == zero
        if not at.any():
            continue
        mask = cores.get(level_of[r])
        _require(mask is not None, f"no core set for level {level_of[r]}")
        far = np.roll(mask, tuple(-x for x in u), axis=tuple(range(n)))  # mask at x + u
        _require(not (at & ~(mask & far)).any(), f"color 0 escapes the cores on step {u}")

    if stdout is not None:
        m = re.search(r"^edges=(\d+) colors=(\d+) limit=(\d+)$", stdout, re.M)
        _require(m is not None and int(m.group(1)) == count
                 and int(m.group(3)) == 2 * len(reps) + 1 and int(m.group(2)) <= int(m.group(3)),
                 "summary line disagrees with the document")


# ---------------------------------------------------------------------------
# lower-bound witnesses
# ---------------------------------------------------------------------------

def _cycle_matchings(a: int, free: int) -> int:
    """Perfect matchings of the cycle C_a restricted to the vertex set ``free``."""
    if not free:
        return 1
    i = (free & -free).bit_length() - 1
    rest = free & ~(1 << i)
    return sum(
        _cycle_matchings(a, rest & ~(1 << j))
        for j in {(i + 1) % a, (i - 1) % a}
        if rest >> j & 1
    )


def torus_perfect_matchings(a: int, b: int) -> int:
    """Perfect matchings of C_a x C_b (a, b >= 3) by a transfer matrix.

    A state is the set of column vertices matched across to the next
    column; the vertices of a column not matched sideways are matched
    along the column's own cycle.
    """
    full = (1 << a) - 1
    states = range(1 << a)
    T = [[(_cycle_matchings(a, full & ~(i | o)) if not i & o else 0) for o in states] for i in states]
    M = np.array(T, dtype=object)
    P = np.identity(1 << a, dtype=object)
    for _ in range(b):
        P = P.dot(M)
    return int(sum(P[i][i] for i in states))


def _odd_order(moduli) -> bool:
    return int(np.prod(moduli)) % 2 == 1


def check_lowerbound(kind: str, params: dict, stdout: str) -> None:
    moduli = params["moduli"]
    n = len(moduli)
    if kind == "chi":
        # an odd-order 2n-regular graph has no perfect matching, so no
        # 2n color classes; Vizing gives at most 2n + 1
        _require(_odd_order(moduli) and min(moduli) >= 3, "chi check needs an odd simple torus")
        _require(stdout.strip() == f"chromatic_index={2 * n + 1}",
                 f"expected chromatic_index={2 * n + 1}, got {stdout.strip()!r}")
    elif kind == "matchings":
        _require(_odd_order(moduli), "matching check needs an odd-order torus")
        _require(stdout.strip() == f"perfect_matching=none vertices={int(np.prod(moduli))}",
                 f"expected no perfect matching, got {stdout.strip()!r}")
    elif kind == "labelings":
        _require(n == 2 and min(moduli) >= 3, "labeling check covers 2-D tori with sides >= 3")
        want = torus_perfect_matchings(*moduli)
        m = re.search(r"^patterns=(\d+) respecting_labelings=(\d+)$", stdout, re.M)
        _require(m is not None and int(m.group(1)) == 12 and int(m.group(2)) == want,
                 f"expected patterns=12 respecting_labelings={want}")
        witnesses = re.findall(r"^witness: (.*)$", stdout, re.M)
        _require(len(witnesses) == min(3, want), "wrong number of witnesses")
        for w in witnesses:
            phi = {}
            for item in w.split():
                v, _, g = item.partition("->")
                phi[_vec(v)] = _vec(g)
            _require(len(phi) == int(np.prod(moduli)), "witness does not label every vertex")
            for x, g in phi.items():
                y = tuple((a + b) % q for a, b, q in zip(x, g, moduli))
                _require(sum(map(abs, g)) == 1 and phi[y] == tuple(-c for c in g),
                         f"witness is not a perfect matching at {x}")
    else:
        raise CheckError(f"no check for {kind!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _read(workdir: str, name: str) -> str:
    with open(os.path.join(workdir, name), encoding="utf-8") as fh:
        return fh.read()


def check_op(op, workdir: str) -> None:
    """Raise CheckError unless every output ``op`` wrote is correct."""
    out = _read(workdir, op.outputs[0])
    if op.kind == "torus":
        check_torus(out, op.params)
    elif op.kind == "svg":
        check_svg(out, _read(workdir, op.argv[op.argv.index("--in") + 1]))
    elif op.kind == "rect":
        check_rect(out, op.params)
    elif op.kind == "layered":
        check_layered(out, op.params, _read(workdir, op.stdout))
    else:
        check_lowerbound(op.kind, op.params, out)
