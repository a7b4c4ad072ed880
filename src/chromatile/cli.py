"""Command-line front end.

Exit codes: 0 verified success, 1 invalid input, 2 verification
failure, 3 infeasible parameters, those whose data does not fit in
memory included.  Every coloring command verifies its
output before writing anything; the tool never emits a coloring it
cannot certify.  All commands are deterministic given their flags.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .document import (
    document_for_layered,
    document_for_rect,
    document_for_torus,
    parse_coloring_document,
    serialize_coloring,
    serialize_layered,
)
from .errors import (
    ChromatileError,
    InfeasibleError,
    InvalidInputError,
    VerificationError,
)
from .grid import Box, SchreierGraphView, Torus
from .lattice import GeneratorSet, decompose_with_constants, load_generator_file, parse_vec
from .layered import run_pipeline
from .lowerbound import (
    chromatic_index,
    has_perfect_matching,
    pattern_count,
    respects_matching,
    search_respecting_labelings,
)
from .rectcolor import (
    color_bc1,
    color_bc2,
    color_core,
    color_shifted_core,
    verify_boundary_condition,
    verify_shifted_core,
)
from .render import render_svg
from .tiling import brick_tiling, color_tiling, first_odd_axis, verify_tiling_coloring

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNVERIFIED = 2
EXIT_INFEASIBLE = 3


def _write_out(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_decompose(args: argparse.Namespace) -> int:
    s = load_generator_file(args.genset, symmetrize=args.symmetrize)
    dec = decompose_with_constants(s)
    print(f"n={s.dimension} |S|={len(s)} levels={dec.level_count + 1}")
    for i, layer in enumerate(dec.layers):
        reps = " ".join(",".join(map(str, v)) for v in layer.pairs())
        print(f"S_{i}: +-{{{reps}}}")
    for i, k in enumerate(dec.k, start=1):
        print(f"k_{i}={k}")
    print(f"alpha={dec.alpha}")
    print(f"beta={dec.beta}")
    print(f"gamma={dec.gamma}")
    print(f"s={','.join(map(str, dec.s))} |s|={dec.s_norm}")
    print(f"d={dec.d}")
    return EXIT_OK


def cmd_color_rect(args: argparse.Namespace) -> int:
    sizes = parse_vec(args.sizes)
    origin = parse_vec(args.origin) if args.origin else (0,) * len(sizes)
    box = Box(origin, sizes)
    t = parse_vec(args.t) if args.t else None
    if t is not None and args.mode != "shifted":
        raise InvalidInputError("--t applies only to --mode shifted")
    if args.odd_axis is not None and args.mode != "bc2":
        raise InvalidInputError("--odd-axis applies only to --mode bc2")
    if args.mode == "bc1":
        coloring = color_bc1(box)
    elif args.mode == "bc2":
        axis = first_odd_axis(box) if args.odd_axis is None else args.odd_axis
        coloring = color_bc2(box, axis)
    elif args.mode == "core":
        coloring = color_core(box)
    elif args.mode == "shifted":
        if t is None:
            raise InvalidInputError("--mode shifted requires --t")
        coloring = color_shifted_core(box, t)
    else:
        raise InvalidInputError(f"unknown mode {args.mode!r}")

    if args.mode in ("core", "shifted"):
        ok = verify_shifted_core(coloring, box, t or (0,) * box.n)
    else:
        ok = verify_boundary_condition(coloring, box)
    if not ok:
        raise VerificationError("produced coloring failed verification")
    doc = document_for_rect(box.origin, box.sizes, args.mode, coloring, t)
    _write_out(args.out, serialize_coloring(doc))
    print(f"ok: {len(coloring)} edges, {len(coloring.colors())} colors", file=sys.stderr)
    return EXIT_OK


def cmd_color_torus(args: argparse.Namespace) -> int:
    moduli = parse_vec(args.moduli)
    torus = Torus(moduli)
    offsets = parse_vec(args.offsets) if args.offsets else None
    tiling = brick_tiling(torus, args.d, offsets=offsets, seed=args.seed)
    coloring = color_tiling(tiling, mode=args.mode)
    report = verify_tiling_coloring(coloring, tiling, args.mode)
    if not report.ok:
        raise VerificationError("; ".join(report.problems))
    doc = document_for_torus(
        moduli, args.d, args.mode, coloring, seed=args.seed, offsets=offsets
    )
    _write_out(args.out, serialize_coloring(doc))
    print(
        f"ok: {len(tiling.regions)} regions, {len(coloring)} edges, "
        f"{len(set(coloring.values()))} colors",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_layered(args: argparse.Namespace) -> int:
    s = load_generator_file(args.genset, symmetrize=args.symmetrize)
    moduli = parse_vec(args.moduli)
    run = run_pipeline(s, moduli, d_override=args.d_override)
    report = run.report
    if not report.ok:
        raise VerificationError("; ".join(report.problems[:5]))
    if args.out:
        doc = document_for_layered(run.result)
        _write_out(args.out, serialize_layered(doc))
    zero_in = report.zero_edges
    print(f"levels={run.dec.level_count + 1} d={run.result.d}")
    print(f"edges={len(run.result.coloring)} colors={report.color_count} "
          f"limit={len(s) + 1}")
    print(f"zero_edges={zero_in} core_vertices="
          f"{sum(len(ks) for ks in run.result.k_sets)}")
    print("verified: proper, total, palette bound, zero confinement")
    return EXIT_OK


def cmd_lowerbound(args: argparse.Namespace) -> int:
    if args.limit is not None and args.search != "labelings":
        raise InvalidInputError("--limit applies only to --search labelings")
    if args.k_max is not None and args.search != "chi":
        raise InvalidInputError("--k-max applies only to --search chi")
    if args.symmetrize and not args.genset:
        raise InvalidInputError("--symmetrize applies only to a --genset file")
    moduli = parse_vec(args.moduli)
    torus = Torus(moduli)
    if args.genset:
        s = load_generator_file(args.genset, symmetrize=args.symmetrize)
    else:
        s = GeneratorSet.standard(len(moduli))
    view = SchreierGraphView(torus, s)
    if args.search == "matchings":
        found = has_perfect_matching(view)
        print(f"perfect_matching={'found' if found else 'none'} "
              f"vertices={torus.vertex_count()}")
    elif args.search == "labelings":
        hits = search_respecting_labelings(torus, s, limit=args.limit)
        witnesses = hits[:3]
        if not all(respects_matching(torus, phi, s) for phi in witnesses):
            raise VerificationError("a labeling found breaks a matching pattern")
        print(f"patterns={pattern_count(s)} respecting_labelings="
              f"{'>=' if len(hits) == args.limit else ''}{len(hits)}")
        for phi in witnesses:
            print("witness: " + " ".join(
                f"{','.join(map(str, v))}->{','.join(map(str, g))}"
                for v, g in phi.items()
            ))
    elif args.search == "chi":
        if args.k_max is not None and args.k_max < 1:
            raise InvalidInputError(f"--k-max must be >= 1, got {args.k_max}")
        k_max = args.k_max if args.k_max is not None else len(s) + 1
        chi = chromatic_index(view, k_max)
        print(f"chromatic_index={chi if chi is not None else f'>{k_max}'}")
    else:
        raise InvalidInputError(f"unknown search {args.search!r}")
    return EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        doc = parse_coloring_document(fh.read())
    slices = {}
    for pin in args.slice or []:
        try:
            ax, val = (int(p) for p in pin.split("="))
        except ValueError as exc:
            raise InvalidInputError(f"bad --slice {pin!r}, expected axis=value") from exc
        if ax in slices:
            raise InvalidInputError(f"--slice pins axis {ax} twice")
        slices[ax] = val
    svg = render_svg(doc, slices)
    _write_out(args.out, svg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromatile",
        description="Constructs and verifies proper edge colorings of "
        "rectangles, tori and tiled grid graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_symmetrize(p):
        p.add_argument(
            "--symmetrize",
            action="store_true",
            help="close the input generating set under negation "
            "(without this flag, asymmetric input is an error)",
        )

    p = sub.add_parser("decompose", help="layer a generating set and print constants")
    p.add_argument("genset", help="generating-set file")
    add_symmetrize(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("color-rect", help="color a rectangle")
    p.add_argument("--sizes", required=True, help="comma-separated side lengths")
    p.add_argument("--origin", help="comma-separated origin (default all 0)")
    p.add_argument("--mode", required=True, choices=["bc1", "bc2", "core", "shifted"])
    p.add_argument("--t", help="core shift vector for --mode shifted")
    p.add_argument("--odd-axis", type=int, help="odd axis for bc2 (default: first odd)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_color_rect)

    p = sub.add_parser("color-torus", help="tile a torus and color it")
    p.add_argument("--moduli", required=True)
    p.add_argument("--d", type=int, required=True, help="marker distance")
    p.add_argument("--mode", default="plain", choices=["plain", "core"])
    p.add_argument("--seed", type=int, help="seed for brick offsets")
    p.add_argument("--offsets", help="explicit per-slab offsets")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_color_torus)

    p = sub.add_parser("layered", help="full multi-level pipeline for any S")
    p.add_argument("--genset", required=True)
    p.add_argument("--moduli", required=True)
    p.add_argument("--d-override", type=int, help="smaller marker distance (4k+2)")
    p.add_argument("--out", help="write the layered document here")
    add_symmetrize(p)
    p.set_defaults(func=cmd_layered)

    p = sub.add_parser("lowerbound", help="finite lower-bound witnesses")
    p.add_argument("--genset", help="generating-set file (default: standard)")
    p.add_argument("--moduli", required=True)
    p.add_argument("--search", required=True, choices=["matchings", "labelings", "chi"])
    p.add_argument("--k-max", type=int, help="color budget for --search chi")
    p.add_argument("--limit", type=int, help="stop after this many labelings")
    add_symmetrize(p)
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("render", help="render a coloring document as SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--slice", action="append", help="axis=value, repeatable")
    p.add_argument("--out", help="output SVG file (default stdout)")
    p.set_defaults(func=cmd_render)

    return parser


# options whose value is a comma-separated vector of integers
VECTOR_OPTIONS = frozenset({"--t", "--origin", "--offsets", "--moduli", "--sizes"})


def _attach_vectors(argv: Sequence[str]) -> list[str]:
    """Join a vector option to a value that starts with a minus sign.

    argparse reads "--t -2,0" as two options, because "-2,0" is not a
    plain negative number; "--t=-2,0" is unambiguous.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in VECTOR_OPTIONS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_vectors(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which
        # would read as a verification failure
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_UNVERIFIED
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError:
        print("infeasible: not enough memory for these parameters", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ChromatileError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
