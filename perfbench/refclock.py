"""Times reported at a reference speed of the host.

The host this benchmark was built on changes its effective CPU speed by up
to 1.8x in phases that last from seconds to minutes. CPU time follows wall
time, so the time is not stolen from the process, and a slow phase can cover
a whole run: raw times of the same code then spread by 25-45% between runs.

A fixed pure-Python kernel (7-queens backtracking over sets, independent of
the engine) slows down in step with the engine: across a 1.75x change of
phase, a 6-host solve's time divided by the kernel's stayed within 2-3%.
So every end-to-end time is multiplied by REFERENCE_KERNEL_S over the
kernel's current time, measured right around the operation. The figure is
what the operation takes when the kernel takes REFERENCE_KERNEL_S, its time
on that host in a fast phase. A change to the engine moves these figures as
it moves raw times; a change of phase mostly does not.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from collections import deque

REFERENCE_KERNEL_S = 0.62e-3
RECALIBRATE_S = 0.25  # phases last seconds; recalibrate this often at most
KERNEL_REPEATS = 5
# The scale uses the median of the last few calibrations (about a second),
# so that one disturbed calibration does not skew the operations around it.
WINDOW = 5


def _kernel(n: int = 7) -> int:
    solutions = []

    def place(row, cols, up, down, acc):
        if row == n:
            solutions.append(tuple(acc))
            return
        for col in range(n):
            if col in cols or row - col in up or row + col in down:
                continue
            cols.add(col)
            up.add(row - col)
            down.add(row + col)
            acc.append(col)
            place(row + 1, cols, up, down, acc)
            cols.discard(col)
            up.discard(row - col)
            down.discard(row + col)
            acc.pop()

    place(0, set(), set(), set(), [])
    return len({s: sorted(s) for s in solutions})


class ReferenceClock:
    def __init__(self):
        self._scale = 1.0
        self._at = -math.inf
        self._recent: deque[float] = deque(maxlen=WINDOW)
        self.scales: list[float] = []

    def scale(self) -> float:
        """Reference time per measured time now (1.0 in a fast phase)."""
        if time.perf_counter() - self._at >= RECALIBRATE_S:
            times = []
            # The kernel measures the interpreter, not the collector: a
            # collection of the benchmark's heap would dwarf it.
            gc.disable()
            try:
                for _ in range(KERNEL_REPEATS):
                    started = time.perf_counter()
                    _kernel()
                    times.append(time.perf_counter() - started)
            finally:
                gc.enable()
            self._recent.append(min(times))
            self._scale = REFERENCE_KERNEL_S / statistics.median(self._recent)
            self._at = time.perf_counter()
            self.scales.append(self._scale)
        return self._scale

    def measure(self, operation):
        """Run operation(); return its result and the factor for the times
        it measured: the mean of the scales before and after it."""
        before = self.scale()
        result = operation()
        return result, (before + self.scale()) / 2
