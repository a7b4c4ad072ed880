"""Scale check: build and certify the 7842^2 shifted core in-process.

7842 is the marker distance that ``decompose_with_constants`` gives for
S = +-{e1, e2, e1 + e2}; the box has 123M edges.  Prints the build and
certification seconds and the peak resident set size, and exits nonzero
when the two together take more than 60 s or the peak passes 1 GiB.

    PYTHONPATH=src python tests/scale_rect.py

pytest does not collect this file: it is not named test_*.py.
"""

import resource
import sys
import time

from chromatile.grid import Box
from chromatile.rectcolor import color_shifted_core, verify_shifted_core

D = 7842
SHIFT = (-(D - 6) // 2, (D - 6) // 2)  # the ends of the admissible range, +-(2k - 2)
LIMIT_S = 60.0
LIMIT_MIB = 1024.0


def main() -> int:
    box = Box((0, 0), (D, D))
    start = time.perf_counter()
    coloring = color_shifted_core(box, SHIFT)
    built = time.perf_counter()
    ok = verify_shifted_core(coloring, box, SHIFT)
    done = time.perf_counter()
    # ru_maxrss is in KiB on Linux
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    total = done - start
    print(f"{D}^2 shifted core {SHIFT}: {len(coloring)} edges, certified={ok}, "
          f"build {built - start:.2f} s, certify {done - built:.2f} s, "
          f"total {total:.2f} s, ru_maxrss {peak_mib:.0f} MiB")
    if not ok:
        print("the coloring failed certification", file=sys.stderr)
        return 1
    if total > LIMIT_S or peak_mib > LIMIT_MIB:
        print(f"over the limits of {LIMIT_S:.0f} s and {LIMIT_MIB:.0f} MiB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
