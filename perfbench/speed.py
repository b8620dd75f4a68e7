"""Machine-speed probe, so timings from a shared machine's slow spells stay comparable.

On a machine shared with other tenants the same work can run 30-50% slower
for tens of seconds at a time.  Every timing the benchmark reports is
therefore scaled to a reference speed: a short fixed pure-Python kernel is
timed just before and just after the measured work, and the work's wall time
is multiplied by the kernel's reference time over its mean measured time.
Reported seconds are "seconds at reference speed"; on an idle machine of
the reference kind they equal wall seconds.  REFERENCE_S is the best time
seen there; in benchmark runs on that machine the probe's median was 1.0-1.6
times it, so reported times read 0.6-1.0 times wall time.  Each run records
its probe_over_reference ratio and its unscaled figures.  The kernel tracks the
interpreter-bound layers closely; numpy-bound work slows down less in a slow
spell, so the poisson workload is over-corrected somewhat and spreads more.

Run as a script it measures one fresh-interpreter import for ``setup_s`` and
prints the scaled import time and the wall import time.
"""

from __future__ import annotations

import sys
import time

# Kernel time (best of three) on a 2-core Intel Xeon VM, Python 3.11, unloaded.
REFERENCE_S = 200e-6


def _kernel() -> int:
    """Integer arithmetic and dict stores, like the exact layers."""
    table = {}
    total = 0
    for i in range(2000):
        total += (i * i) % 7
        table[i & 255] = total
    return total


def probe() -> float:
    """Best of three kernel timings, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for work between two probes."""
    return REFERENCE_S * 2 / (before + after)


def _import_time(module: str) -> tuple[float, float]:
    before = probe()
    start = time.perf_counter()
    __import__(module)
    elapsed = time.perf_counter() - start
    return elapsed * scale(before, probe()), elapsed


if __name__ == "__main__":
    print(*_import_time(sys.argv[1]))
