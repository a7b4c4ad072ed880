"""One workload run in a fresh process.

Started by run.py.  It imports ``chromatile.cli`` from the checkout's
``src/`` and writes the workload's input files (the set-up a real CLI
call pays), then runs whole rounds of the workload's operations as one
closed-loop client: each operation is a ``chromatile.cli.main`` call
made once the previous one has returned.  It prints one JSON object as
its last line of output.

With --setup-only it stops after the set-up.  With --trace 1 it
alternates untraced and traced rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]


def _clear_program_caches() -> None:
    """Empty every memoised builder, as a fresh CLI process has them."""
    for name, module in list(sys.modules.items()):
        if name == "chromatile" or name.startswith("chromatile."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_op(cli, op, tracer) -> tuple[int, float]:
    """Exit code and wall time of one CLI call."""
    _clear_program_caches()
    gc.collect()
    with open(op.stdout or os.devnull, "w", encoding="utf-8") as out, \
            open(f"{op.label}.stderr", "w", encoding="utf-8") as err, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(list(op.argv))
            else:
                code = tracer.call("cli", cli.main, list(op.argv))
        except SystemExit as exc:  # argparse exits instead of returning
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    return code, elapsed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--t0", type=float, required=True, help="monotonic time of the spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import chromatile.cli as cli
    except ImportError as exc:
        print(f"cannot import chromatile from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"chromatile was imported from {cli.__file__}, not the checkout", file=sys.stderr)
        return 1
    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    inputs, ops = workloads.build(args.workload, args.seed)
    for name, text in inputs.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    times: dict[str, list[float]] = {op.label: [] for op in ops}  # untraced rounds
    untraced, traced, layers = [], [], []
    attempted = failed = 0
    bad: set[str] = set()  # labels with a failed attempt
    unexpected: list[str] = []
    verdict: dict[tuple[str, str], str] = {}  # (label, digests) -> "" or check error
    digests: dict[str, str] = {}
    peak_rss_mib = None
    measured = 0.0
    rounds = 0
    while True:
        tracer = None
        if args.trace and rounds % 2:
            tracer = spans.Tracer()
            saved = spans.install(tracer)
        outcomes = []
        try:
            for op in ops:
                outcomes.append((op,) + run_op(cli, op, tracer))
        finally:
            if tracer is not None:
                spans.uninstall(saved)
        rounds += 1
        if peak_rss_mib is None:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            import check  # loads numpy, so only once the peak has been read
        for op, code, elapsed in outcomes:
            attempted += 1
            problem = f"exit code {code}"
            if code == 0:
                sums = {name: _sha256(name) for name in op.outputs}
                digests.update(sums)
                key = (op.label, json.dumps(sums, sort_keys=True))
                if key not in verdict:  # identical bytes get the same verdict
                    try:
                        check.check_op(op, ".")
                        verdict[key] = ""
                    except check.CheckError as exc:
                        verdict[key] = str(exc)
                problem = verdict[key]
            if problem:
                failed += 1
                bad.add(op.label)
                if not op.expect_fail:
                    unexpected.append(f"{op.label}: {problem}")
            if tracer is None:
                times[op.label].append(elapsed)
        wall = sum(elapsed for _, _, elapsed in outcomes)
        if tracer is None:
            untraced.append(wall)
        else:
            traced.append(wall)
            layers.append(tracer.metrics())
        # --seconds bounds the time spent in operations, checks excluded:
        # stop before a round that would take it past that; a traced run
        # needs one untraced and one traced round
        measured += wall
        if measured * (rounds + 1) / rounds > args.seconds and (not args.trace or rounds >= 2):
            break

    for line in unexpected:
        print(f"failed: {line}", file=sys.stderr)
    if args.trace:
        metrics = {
            name: statistics.median(r[name] for r in layers)
            for name, _ in spans.PER_LAYER if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    else:
        # per-operation medians damp a slow moment in one call
        wall_s = sum(statistics.median(t) for t in times.values())
        metrics = {
            "wall_s": wall_s,
            "edges_per_s": sum(op.edges for op in ops if op.label not in bad) / wall_s,
            "peak_rss_mib": peak_rss_mib,
        }
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setup_s": setup_s,
        "digests": digests,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
