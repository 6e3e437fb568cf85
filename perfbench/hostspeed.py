"""Host speed, sampled with a fixed reference kernel.

The benchmark shares its machine with other load, and the speed of the same
code in the same process changes by up to 1.7x within seconds to minutes
(measured on a 2-vCPU 2.1 GHz Xeon VM, where the slow spells showed neither
as steal time nor as gaps in the process's clock).  Raw wall times of two
runs of the same commit then differ by more than a regression the benchmark
must catch.  So the workers run a small reference kernel, which uses no
kakeyalab code, between timed items, about every ``EVERY_S`` seconds and
never inside an item's timing, and rescale each duration to the speed at
which the warm kernel takes ``REF_S``:

    scaled = seconds * REF_S / mean(kernel times sampled within WINDOW_S)

The raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np

# about the warm kernel's time on the host above when unloaded
REF_S = 2.2e-3
EVERY_S = 0.25
WINDOW_S = 1.0


def kernel():
    """Fraction arithmetic, dict updates over tuple keys and a small numpy
    loop: the kinds of work the workloads do."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i % 7 + 1, i % 11 + 2)
    counts: dict[tuple, int] = {}
    for i in range(4000):
        key = (i % 50, i % 7)
        counts[key] = counts.get(key, 0) + i
    a = np.arange(30000, dtype=float)
    for _ in range(5):
        a = np.sqrt(a * a + 1.0)
    return total, len(counts), float(a.sum())


class HostSpeed:
    """Kernel samples of one process, kept in time order."""

    def __init__(self, clock=time.perf_counter, probe=kernel):
        self.clock, self.probe = clock, probe
        self.starts: list[float] = []
        self.secs: list[float] = []
        self.last = float("-inf")

    def sample(self, times: int = 1):
        """Time the kernel ``times`` times, each after an untimed run of it,
        so that what the last item left in the caches does not count."""
        for _ in range(times):
            self.probe()
            start = self.clock()
            self.probe()
            self.last = self.clock()
            self.starts.append(start)
            self.secs.append(self.last - start)

    def maybe_sample(self):
        """Sample if the last sample ended ``EVERY_S`` or more ago."""
        if self.clock() - self.last >= EVERY_S:
            self.sample()

    def factor(self, start: float | None = None, seconds: float = 0.0) -> float:
        """``REF_S`` over the mean kernel time near ``[start, start +
        seconds]``: the samples that began within ``WINDOW_S`` of it, or
        the nearest sample if none did, or all samples if start is None."""
        if start is None:
            near = self.secs
        else:
            i0 = bisect_left(self.starts, start - WINDOW_S)
            i1 = bisect_right(self.starts, start + seconds + WINDOW_S)
            near = self.secs[i0:i1] or [self.secs[min(i0, len(self.secs) - 1)]]
        return REF_S * len(near) / sum(near)

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` that began at ``start``, at the reference speed."""
        return seconds * self.factor(start, seconds)
