"""Host speed, from a fixed kernel timed between the ops of a run.

On a shared 2-vCPU virtual machine the CPU speed was measured to change by
20-40% over minutes, and by tens of percent from one second to the next,
with a pure-Python loop that contains no bernjac.  That swamps the bounds a regression check needs, so ``run.py`` reports
times at a reference host speed: each op's latency is divided by the host
factor around it, the median kernel time of the nearest samples over
REFERENCE_S.  The kernel calls nothing of bernjac, so no change to the
library can move it; raw wall-clock values are printed and recorded beside
the normalised ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 1e-3    # the kernel's time at the reference speed
EVERY_S = 0.05        # sampling interval during a timed phase
NEIGHBOURS = 2        # samples on each side that set an op's local factor; the
                      # host's speed moves within a second, and over 10-s chunks
                      # of one run 1-3 gave the steadiest medians (10 did worse)


def kernel() -> float:
    """Fixed work shaped like bernjac's: a scalar float recurrence in
    Python, many small numpy calls and one dense product."""
    a = [0.5 + 0.001 * j for j in range(120)]
    b = [1.0] * 120
    for _ in range(24):
        b = [(1.0 - x) * y + 0.5 * x for x, y in zip(a, b)]
    v = np.linspace(0.0, 1.0, 32)
    for _ in range(80):
        v = np.concatenate([v[:1], 0.5 * (v[:-1] + v[1:]), v[-1:]])[:32]
    m = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
    return sum(b) + float(v.sum()) + float((m @ m).sum())


class Speedometer:
    """Kernel timings taken between ops; factors above 1 mean a host
    slower than the reference."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self._due = 0.0

    def sample_if_due(self) -> None:
        """Sample at most once per EVERY_S."""
        if perf_counter() >= self._due:
            self.sample()

    def sample(self) -> None:
        """Time one warm kernel call."""
        kernel()
        t0 = perf_counter()
        kernel()
        self.times.append(t0)
        self.samples.append(perf_counter() - t0)
        self._due = perf_counter() + EVERY_S

    def factor(self) -> float:
        """Host factor over the whole run."""
        return statistics.median(self.samples) / REFERENCE_S

    def local_factors(self, when) -> np.ndarray:
        """Host factor at each of the times ``when``: the median of the
        2*NEIGHBOURS+1 samples nearest to it in order."""
        s = np.array(self.samples)
        rolled = np.array([np.median(s[max(0, j - NEIGHBOURS):j + NEIGHBOURS + 1]) for j in range(len(s))])
        idx = np.clip(np.searchsorted(self.times, when), 0, len(s) - 1)
        return rolled[idx] / REFERENCE_S
