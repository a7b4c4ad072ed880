"""End-to-end and per-layer benchmark of the chromatile command line.

    python3 perfbench/run.py --workload torus --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload runs in a fresh worker
process (worker.py) that drives ``chromatile.cli.main`` in-process as
one closed-loop client; this launcher first starts a few set-up-only
workers to time set-up, then the measuring one, one process at a time.
It prints one line per output digest and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
UNITS = {"setup_s": "s", "wall_s": "s", "edges_per_s": "edges/s", "peak_rss_mib": "MiB"}
SETUP_PROBES = 6  # set-up-only workers; the measuring worker adds one more sample
DEADLINE_S = 170.0
SEED_DEPENDENT = {"torus"}  # workloads whose inputs change with --seed


def _worker(argv: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("worker did not finish before the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _digest_lines(workload: str, seed: int, digests: dict[str, str]) -> list[str]:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    usable = workload not in SEED_DEPENDENT or seed == ref["seed"]
    out = []
    for name, sha in sorted(digests.items()):
        want = ref["digests"].get(f"{workload}/{name}") if usable else None
        status = "no reference" if want is None else ("same" if want == sha else "DIFFERS")
        out.append(f"digest {workload}/{name} {sha} {status}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setup = [_worker(common + ["--workdir", str(workdir / f"probe{i}"), "--setup-only"],
                         deadline)["setup_s"] for i in range(SETUP_PROBES)]
        result = _worker(common + ["--workdir", str(workdir / "run")], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    setup.append(result["setup_s"])

    for line in _digest_lines(args.workload, args.seed, result["digests"]):
        print(line)
    if args.trace:
        metrics = {name: {"value": result["metrics"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setup))
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
