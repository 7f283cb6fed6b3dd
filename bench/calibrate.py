"""Machine-speed calibration: wall time scaled to a fixed reference speed.

The measurement machine is a few vCPUs of a shared host whose speed moves
between phases that last from seconds to minutes: a fixed pure-Python loop
takes 0.19 s in one phase and 0.27 s in the next, with CPU time tracking
wall time.  Whole 60 s runs land in one phase or the other, so raw wall
time spreads by a third between runs of the same code.

A child therefore runs a short fixed kernel (no permap code: it builds
KERNEL_ITEMS small tuples, shuffles them and reads them back in shuffled
order, so it allocates and chases pointers through a few MB as the
workloads do) before its first operation and again
whenever at least SEGMENT_S seconds of operations have run since the last
kernel.  Each segment's operation time is scaled by REFERENCE_S over the
mean kernel time at its two ends:

    wall_s = sum(work * REFERENCE_S / ((before + after) / 2))

so it reads as seconds on a machine where the kernel takes REFERENCE_S.
A change to permap moves the operation times and not the kernel, so it
shows in full.  The kernel runs with the garbage collector off, so a
large permap heap does not slow it down and hide the cost of that heap.
"""

from __future__ import annotations

import gc
import random
import time

KERNEL_ITEMS = 40_000
REFERENCE_S = 0.065  # median kernel time on the measurement machine (2 vCPU Xeon)
SEGMENT_S = 0.5      # operation seconds between two kernels
WARMUP = 3           # untimed kernel runs first: a fresh heap makes the first ones slow


def kernel() -> float:
    """Seconds one run of the fixed calibration kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        items = [(i, i * 1.5, str(i)) for i in range(KERNEL_ITEMS)]
        random.Random(1).shuffle(items)
        total = 0
        for item in items:
            total += item[0]
        del items
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Splits a child's operations into segments bracketed by kernel runs.

    ``after_op(seconds)`` is called after every operation with its time;
    ``close()`` after the last one.  ``segments`` holds
    (work seconds, kernel before, kernel after) per segment.
    """

    def __init__(self, clock=kernel, warmup: int = WARMUP):
        for _ in range(warmup):
            clock()
        self.clock = clock
        self.segments: list[tuple[float, float, float]] = []
        self.work = 0.0
        self.last = clock()

    def after_op(self, seconds: float) -> None:
        self.work += seconds
        if self.work >= SEGMENT_S:
            self.close()

    def close(self) -> None:
        if self.work > 0:
            now = self.clock()
            self.segments.append((self.work, self.last, now))
            self.last, self.work = now, 0.0

    def raw_s(self) -> float:
        """Operation seconds as measured."""
        return sum(work for work, _, _ in self.segments) + self.work

    def scaled_s(self) -> float:
        """Operation seconds at the reference speed."""
        return sum(work * REFERENCE_S * 2 / (before + after)
                   for work, before, after in self.segments)
