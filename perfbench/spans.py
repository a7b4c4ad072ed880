"""Per-layer tracing installed from outside the program.

A traced round replaces functions of ``chromatile`` modules, at the
names their callers look up, with wrappers that record one span per
call (name, start, end, parent).  Nothing under ``src/`` changes: the
wrappers are set with ``setattr`` and the originals are put back after
the round.  A layer's self time is the sum of its spans' durations
minus the parts covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric, unit) in the order they are reported; "_s" metrics are self
# times of the span named by the metric without its suffix, except that
# cli.self_s is the self time of the "cli" span around each call
PER_LAYER = [
    ("cli.self_s", "s"),
    ("lattice.decompose_s", "s"),
    ("tiling.brick_tiling_s", "s"),
    ("tiling.color_s", "s"),
    ("tiling.verify_s", "s"),
    ("tiling.regions", "count"),
    ("tiling.edges", "count"),
    ("rectcolor.build_s", "s"),
    ("rectcolor.build_calls", "count"),
    ("rectcolor.distinct_builds", "count"),
    ("rectcolor.verify_s", "s"),
    ("layered.build_model_s", "s"),
    ("layered.plan_tilings_s", "s"),
    ("layered.run_s", "s"),
    ("layered.verify_s", "s"),
    ("layered.orbits", "count"),
    ("layered.regions", "count"),
    ("layered.core_vertices", "count"),
    ("layered.max_shift_factor", "count"),
    ("layered.edges", "count"),
    ("lowerbound.chromatic_index_s", "s"),
    ("lowerbound.matching_s", "s"),
    ("lowerbound.labelings_s", "s"),
    ("lowerbound.graph_edges", "count"),
    ("lowerbound.labelings_found", "count"),
    ("document.write_s", "s"),
    ("document.read_s", "s"),
    ("document.bytes", "bytes"),
    ("render.svg_s", "s"),
    ("render.svg_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Spans and counts of one round."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.counts: dict[str, float] = {}
        self._builds: set = set()

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[self._open.pop()][2] = time.perf_counter()

    def add(self, metric: str, value: float) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + value

    def peak(self, metric: str, value: float) -> None:
        self.counts[metric] = max(self.counts.get(metric, 0), value)

    def build(self, key) -> None:
        self.add("rectcolor.build_calls", 1)
        self._builds.add(key)

    def end_op(self) -> None:
        """Each call starts with cold rectangle caches, so its distinct
        build keys are its cold builds."""
        self.add("rectcolor.distinct_builds", len(self._builds))
        self._builds.clear()

    def metrics(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_time: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - covered[i]
        out = {}
        for metric, unit in PER_LAYER:
            if unit == "s":
                span = "cli" if metric == "cli.self_s" else metric[:-2]
                out[metric] = self_time.get(span, 0.0)
            else:
                out[metric] = self.counts.get(metric, 0)
        return out


# counters: (tracer, args, kwargs, result) -> None, run after the span closed

def _regions(tr, args, kwargs, tiling):
    tr.add("tiling.regions", len(tiling.regions))


def _tiling_edges(tr, args, kwargs, coloring):
    tr.add("tiling.edges", len(coloring))


def _build(tr, args, kwargs, coloring):
    box = args[0]
    tr.build((box.sizes, args[1:], tuple(sorted(kwargs.items()))))


def _orbits(tr, args, kwargs, models):
    tr.add("layered.orbits", sum(len(m.reps) for m in models))


def _layered(tr, args, kwargs, result):
    tr.add("layered.regions", sum(
        len(m.reps) * len(t.regions) for m, t in zip(result.models, result.tilings)))
    tr.add("layered.core_vertices", sum(len(ks) for ks in result.k_sets))
    tr.peak("layered.max_shift_factor", max(result.shifts.values(), default=0))
    tr.add("layered.edges", len(result.coloring))


def _view_edges(tr, args, kwargs, result):
    view = args[0]
    tr.add("lowerbound.graph_edges", view.domain.vertex_count() * len(view.generators.pairs()))


def _labelings(tr, args, kwargs, found):
    torus, s = args[0], args[1]
    tr.add("lowerbound.graph_edges", torus.vertex_count() * len(s.pairs()))
    tr.add("lowerbound.labelings_found", len(found))


# the formats are ASCII, so characters are bytes
def _doc_bytes(tr, args, kwargs, text):
    tr.add("document.bytes", len(text))


def _svg_bytes(tr, args, kwargs, text):
    tr.add("render.svg_bytes", len(text))


_BUILDERS = {
    "chromatile.cli": ("color_bc1", "color_bc2", "color_core", "color_shifted_core"),
    "chromatile.tiling": ("color_bc1", "color_bc2", "color_core", "color_shifted_core"),
    "chromatile.layered": ("color_bc2", "color_shifted_core"),
}

# (module, attribute, span, counter)
WRAPS = (
    [("chromatile.cli", "brick_tiling", "tiling.brick_tiling", _regions),
     ("chromatile.cli", "color_tiling", "tiling.color", _tiling_edges),
     ("chromatile.cli", "verify_tiling_coloring", "tiling.verify", None)]
    + [(mod, fn, "rectcolor.build", _build)
       for mod, names in _BUILDERS.items() for fn in names]
    + [("chromatile.cli", fn, "rectcolor.verify", None)
       for fn in ("verify_proper", "verify_boundary_condition", "verify_shifted_core")]
    + [("chromatile.layered", "decompose_with_constants", "lattice.decompose", None),
       ("chromatile.layered", "build_model", "layered.build_model", _orbits),
       ("chromatile.layered", "plan_tilings", "layered.plan_tilings", None),
       ("chromatile.layered", "run_layered", "layered.run", _layered),
       ("chromatile.layered", "verify_layered", "layered.verify", None),
       ("chromatile.cli", "chromatic_index", "lowerbound.chromatic_index", _view_edges),
       ("chromatile.cli", "has_perfect_matching", "lowerbound.matching", _view_edges),
       ("chromatile.cli", "search_respecting_labelings", "lowerbound.labelings", _labelings),
       ("chromatile.cli", "document_for_rect", "document.write", None),
       ("chromatile.cli", "document_for_torus", "document.write", None),
       ("chromatile.cli", "document_for_layered", "document.write", None),
       ("chromatile.cli", "serialize_coloring", "document.write", _doc_bytes),
       ("chromatile.cli", "serialize_layered", "document.write", _doc_bytes),
       ("chromatile.cli", "parse_coloring_document", "document.read", None),
       ("chromatile.cli", "render_svg", "render.svg", _svg_bytes)]
)


def _wrapper(tracer: Tracer, fn, span: str, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(span, fn, *args, **kwargs)
        if counter is not None:
            counter(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every entry of WRAPS that exists; returns what to restore."""
    saved = []
    for mod_name, attr, span, counter in WRAPS:
        module = importlib.import_module(mod_name)
        fn = getattr(module, attr, None)
        if fn is None:
            print(f"trace: {mod_name}.{attr} not found, its layer reads 0", file=sys.stderr)
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, _wrapper(tracer, fn, span, counter))
    return saved


def uninstall(saved: list[tuple]) -> None:
    for module, attr, fn in reversed(saved):
        setattr(module, attr, fn)
