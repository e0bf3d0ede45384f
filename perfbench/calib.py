"""Host speed, read from a fixed loop timed on both sides of every
measured operation.

The shared hosts this benchmark runs on change speed for seconds to
minutes at a time: a fixed loop takes up to twice as long in a slow
phase, with CPU time equal to wall time, and one run often sits inside
one phase. So the spread of raw wall times across runs says more about
the host than about the program. Every timed operation (and every
timed set-up) is therefore bracketed by passes of :func:`kernel_seconds`,
a fixed integer loop that imports nothing from the program, and its
wall time is converted to *reference seconds*: the time it would have
taken on a host where the kernel takes :data:`NOMINAL_S`. A change to
the program moves only the operation's side of that ratio.
"""

from __future__ import annotations

import time

#: Loop steps of one kernel pass.
LOOPS = 100_000

#: Seconds one kernel pass takes at the reference speed: the fast phase
#: of the 2-CPU Linux VM (Python 3.11.7) the benchmark was written on.
NOMINAL_S = 0.0063

#: Passes per side of an operation; the fastest counts, so a pass that a
#: context switch interrupts does not read as a slow host.
PASSES = 3


def kernel_seconds() -> float:
    """Wall seconds of the fastest of :data:`PASSES` kernel passes."""
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        acc = 0
        for i in range(LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def reference_seconds(wall_s: float, kernel_before: float, kernel_after: float) -> float:
    """``wall_s`` at the reference speed, given the kernel times read
    just before and just after it."""
    return wall_s * NOMINAL_S * 2.0 / (kernel_before + kernel_after)
