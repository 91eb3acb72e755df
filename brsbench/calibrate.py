"""Calibration helper process: times a fixed NumPy unit on request.

:class:`brsbench.common.Calibrator` starts this script and talks to it
over a pipe.  Each line read from standard input is a sample count ``n``;
the reply is one line with ``n`` unit timings in seconds.  The helper
exits when its standard input closes.

The unit (a stable argsort, a cumulative sum and grouped sums over 20 000
floats: the array operations the solvers' kernels run) imports no
program code, and it runs in its own process, so neither a change to the
program nor work the program leaves running in its own threads can move
it.  It follows the shared host's speed.
"""

from __future__ import annotations

import sys
import time

import numpy as np

DATA = np.random.default_rng(0).random(20_000)
#: Units run once at start-up, so the first reply is not a cold one.
WARMUP = 20


def unit() -> float:
    t0 = time.perf_counter()
    order = np.argsort(DATA, kind="stable")
    sums = np.cumsum(DATA[order])
    np.add.reduceat(sums, np.arange(0, sums.size, 7))
    return time.perf_counter() - t0


def main() -> int:
    for _ in range(WARMUP):
        unit()
    for line in sys.stdin:
        n = int(line)
        print(" ".join(repr(unit()) for _ in range(n)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
