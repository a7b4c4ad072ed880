"""Mutation self-test of the benchmark's checker.

    python3 perfbench/selftest.py

Makes one small output of each kind the benchmark checks (torus,
layered, rect) with the CLI, confirms the checker accepts it, then
changes the color of a single edge record in several ways and confirms
the checker rejects every such output.  Each targeted mutation keeps
every property but one intact and must be rejected by the check of
that property, which shows the check is not vacuous; the random ones
give an edge a color already present at one of its endpoints and must
fail properness.  Exits 1 if any mutant is not rejected that way.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import sys
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
RANDOM_MUTANTS = 20


class Doc:
    """Record lines of a document with the colors seen at each vertex."""

    def __init__(self, text: str, endpoints) -> None:
        self.lines = text.split("\n")
        self.start = next(i for i, ln in enumerate(self.lines) if ln.startswith("edges=")) + 1
        self.recs = []  # (line index, key, endpoints, color)
        self.at: dict[tuple, dict[str, int]] = {}
        for i in range(self.start, len(self.lines)):
            if not self.lines[i]:
                continue
            base, step, color = (p.strip() for p in self.lines[i].split(";"))
            key = (check._vec(base), check._vec(step))
            ends = endpoints(*key)
            self.recs.append((i, key, ends, color))
            for v in ends:
                self.at.setdefault(v, {})[color] = i

    def missing(self, v, palette) -> set[str]:
        return set(palette) - set(self.at[v])

    def mutate(self, i: int, color: str) -> str:
        base, step, _ = self.lines[i].split(" ; ")
        lines = list(self.lines)
        lines[i] = f"{base} ; {step} ; {color}"
        return "\n".join(lines)


def _cli(argv: list[str]) -> None:
    import chromatile.cli as cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"chromatile {' '.join(argv)} exited with {code}")


def _first(recs, cond):
    return next((r for r in recs if cond(r)), None)


def torus_mutants(text: str, params: dict):
    moduli = params["moduli"]
    n = len(moduli)

    def ends(base, axis):
        up = tuple((x + (j == axis[0] - 1)) % q for j, (x, q) in enumerate(zip(base, moduli)))
        return (base, up)

    doc = Doc(text, ends)
    palette = check.standard_palette(n)
    extra = str(n + 1)
    out = []
    # confinement: an edge between two vertices that never see the extra
    # color lies outside every core; giving it that color keeps properness
    r = _first(doc.recs, lambda r: r[3] != extra and all(extra in doc.missing(v, palette) for v in r[2]))
    out.append(("extra color outside the cores", doc.mutate(r[0], extra)))
    # locality: a color missing at both ends keeps properness; with a
    # non-extra color (or an edge inside a core) confinement holds too
    for i, key, e, color in doc.recs:
        free = set.intersection(*(doc.missing(v, palette) for v in e))
        free = {c for c in free if c != extra}
        if free:
            out.append(("colored unlike other", doc.mutate(i, min(free))))
            break
    return doc, palette, out


def rect_mutants(text: str, params: dict):
    sizes, origin, t = params["sizes"], params["origin"], params["t"]

    def ends(base, axis):
        return (base, tuple(x + (j == axis[0] - 1) for j, x in enumerate(base)))

    def inside(v):
        return all(o <= x <= o + a for x, o, a in zip(v, origin, sizes))

    doc = Doc(text, ends)
    n = len(sizes)
    palette = check.standard_palette(n)
    extra = str(n + 1)
    out = []
    if params["mode"] == "bc1":
        # boundary condition: an adjacent edge takes a color its inner end
        # lacks, which keeps properness; bc1 has no core to confine to
        r = _first(doc.recs, lambda r: not all(inside(v) for v in r[2]))
        inner = next(v for v in r[2] if inside(v))
        out.append(("adjacent edge along axis", doc.mutate(r[0], min(doc.missing(inner, palette)))))
        return doc, palette, out
    core = [o + a // 2 - 1 + s for o, a, s in zip(origin, sizes, t)]

    def in_core(v):
        return all(c <= x <= c + 2 for x, c in zip(v, core))

    r = _first(doc.recs, lambda r: r[3] != extra and all(inside(v) for v in r[2])
               and not all(in_core(v) for v in r[2])
               and all(extra in doc.missing(v, palette) for v in r[2]))
    out.append(("extra color outside the (shifted) core", doc.mutate(r[0], extra)))
    return doc, palette, out


def layered_mutants(text: str, params: dict):
    moduli = params["moduli"]

    def ends(base, step):
        return (base, tuple((x + u) % q for x, u, q in zip(base, step, moduli)))

    doc = Doc(text, ends)
    palette = sorted({r[3] for r in doc.recs})
    out = []
    r = _first(doc.recs, lambda r: r[3] != "0" and all("0" in doc.missing(v, palette) for v in r[2]))
    out.append(("color 0 escapes the cores", doc.mutate(r[0], "0")))
    return doc, palette, out


def random_mutants(doc: Doc, rng: random.Random):
    """Give an edge the color of another edge at one of its endpoints."""
    out = []
    for i, key, ends, color in rng.sample(doc.recs, RANDOM_MUTANTS):
        v = rng.choice(ends)
        taken = sorted(c for c in doc.at[v] if c != color)
        out.append(("sees a color twice", doc.mutate(i, rng.choice(taken))))
    return out


def main() -> int:
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    work = HERE / "_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    rng = random.Random(0)
    missed = 0
    try:
        with open("diag.txt", "w", encoding="utf-8") as fh:
            fh.write("n=2\n1,0\n0,1\n1,1\n")
        cases = [
            ("torus", ["color-torus", "--moduli", "42,42", "--d", "10", "--mode", "core",
                       "--offsets", "5,17,29", "--out", "t.txt"],
             {"moduli": (42, 42), "d": 10, "offsets": (5, 17, 29)},
             check.check_torus, torus_mutants),
            ("rect", ["color-rect", "--sizes", "10,10,10", "--origin=2,-3,1", "--mode", "shifted",
                      "--t=2,0,-2", "--out", "r.txt"],
             {"sizes": (10, 10, 10), "origin": (2, -3, 1), "mode": "shifted", "t": (2, 0, -2)},
             check.check_rect, rect_mutants),
            ("rect", ["color-rect", "--sizes", "7,8,9", "--mode", "bc1", "--out", "b.txt"],
             {"sizes": (7, 8, 9), "origin": (0, 0, 0), "mode": "bc1", "t": None},
             check.check_rect, rect_mutants),
            ("layered", ["layered", "--genset", "diag.txt", "--symmetrize", "--moduli", "37,37",
                         "--d-override", "18", "--out", "l.txt"],
             {"vectors": ((1, 0), (0, 1), (1, 1)), "moduli": (37, 37)},
             check.check_layered, layered_mutants),
        ]
        for kind, argv, params, checker, targeted in cases:
            _cli(argv)
            with open(argv[-1], encoding="utf-8") as fh:
                text = fh.read()
            checker(text, params)
            print(f"{kind}: clean output accepted")
            doc, _, mutants = targeted(text, params)
            for expect, mutant in mutants + random_mutants(doc, rng):
                try:
                    checker(mutant, params)
                    verdict = "ACCEPTED"
                except check.CheckError as exc:
                    verdict = f"rejected: {exc}"
                if expect not in verdict:  # each mutant breaks one known property
                    missed += 1
                print(f"{kind}: {verdict}")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    print("every mutant rejected by the check it targets" if not missed
          else f"{missed} mutants not rejected by the check they target")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
