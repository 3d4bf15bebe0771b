"""Wall time scaled to a reference machine speed.

The machines this benchmark runs on are shared: the same fixed loop of
Python and NumPy work runs up to 1.5 times slower for stretches of seconds
to minutes while other tenants are busy.  That is as long as a round or a
whole run, so a median over rounds cannot remove it.

So a fixed calibration kernel runs between operations (never during one),
and each stretch of wall time between two calibrations is scaled by
REFERENCE_S / (the mean kernel time at its two ends).  A time in
"reference seconds" is what the interval would have lasted had the kernel
run at its reference speed.  The calibration's own time is left out.
"""

from __future__ import annotations

import bisect
from time import perf_counter

import numpy as np

# kernel time on the development machine (2 cores) when it is not contended
REFERENCE_S = 0.02


class RefClock:
    def __init__(self):
        self._ints = np.arange(200 * 200, dtype=np.int64).reshape(200, 200) % 5
        self._objs = np.array(range(50_000), dtype=object)
        self.starts: list[float] = []   # calibration start times
        self.ends: list[float] = []
        self.kernel_s: list[float] = []

    def _kernel(self) -> float:
        """Python integer loop, int64 matmul and object-array arithmetic:
        the three kinds of work etfkit does."""
        start = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        self._ints @ self._ints
        (self._objs * 3 + self._objs).sum()
        return perf_counter() - start

    def mark(self) -> None:
        """Calibrate now: the faster of two kernel runs."""
        start = perf_counter()
        k = min(self._kernel(), self._kernel())
        self.starts.append(start)
        self.ends.append(perf_counter())
        self.kernel_s.append(k)

    def since_mark(self) -> float:
        return perf_counter() - self.ends[-1]

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds in the wall interval [t0, t1]."""
        total = 0.0
        i = bisect.bisect_right(self.ends, t0)   # first stretch ends at mark i
        while True:
            lo = self.ends[i - 1] if i > 0 else float("-inf")
            hi = self.starts[i] if i < len(self.starts) else float("inf")
            if lo >= t1:
                return total
            left = self.kernel_s[max(i - 1, 0)]
            right = self.kernel_s[min(i, len(self.kernel_s) - 1)]
            span = min(hi, t1) - max(lo, t0)
            if span > 0:
                total += span * REFERENCE_S / ((left + right) / 2)
            if hi >= t1:
                return total
            i += 1
