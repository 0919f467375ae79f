"""Host-speed probe: a fixed reference kernel in a process of its own.

    python3 bench/hostprobe.py

Each line read from stdin asks for one probe: the kernel runs CALLS times
and the reply is one line of JSON, the list of its wall seconds.  The
probe exits at end of input.  It runs in its own process so that nothing
the measured program leaves behind (heap, gc state, allocator or cache
contents) enters its time: only the host's speed does.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

CALLS = 20


def reference_kernel(systems) -> float:
    """Seconds for a fixed mix of interpreter and small-numpy work like the
    pipeline's: build 4x4 systems from Python floats, solve each by SVD and
    dehomogenise the null vector (triangulation), then shrink a distance
    matrix held as lists one row and column at a time (clustering)."""
    t0 = time.perf_counter()
    for A in systems:
        M = np.array([[float(v) for v in row] for row in A])
        X = np.linalg.svd(M)[2][-1]
        [float(v) for v in X[:3] / X[3]]
    n = 70
    D = [[float((i * 7 + j * 13) % 29) for j in range(n)] for i in range(n)]
    while len(D) > 1:
        merged = [max(a, b) for a, b in zip(D[0], D[1])]
        D = [[row[q] for q in range(len(row)) if q != 1]
             for k, row in enumerate(D) if k != 1]
        D[0] = merged[:1] + merged[2:]
    return time.perf_counter() - t0


def main() -> int:
    systems = np.random.default_rng(0).normal(size=(250, 4, 4))
    for _ in sys.stdin:
        print(json.dumps([reference_kernel(systems) for _ in range(CALLS)]),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
