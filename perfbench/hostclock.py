"""Host-speed reference for the end-to-end timings.

Other tenants' load moves the speed of the shared VMs the benchmark runs
on: the same discord() call on the same input took from about 0.84 s to
1.34 s in ten-operation medians a minute apart, with no steal time
reported. A fixed block of reference work, of the kind the library does
(a small complex ``eigh``, matrix products, a Python loop) and nothing
from discordium, is timed between operations throughout the measured
pass. The median of the blocks around an operation gives the host's speed
while it ran, and each operation's time is reported as it would read at
the nominal speed ``NOMINAL_MS``; the raw timings are printed beside
them. Set-up time is reported as measured: a block after set-up tracked
the speed during it too loosely to help.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# One block's median time on the 2-core x86_64 VM the benchmark was tuned
# on (Python 3.11, numpy 2.4); only the scale of the reported times
# depends on it.
NOMINAL_MS = 10.0
# Least time between two blocks, so that they add at most about 4%.
EVERY_S = 0.25
_ITERS = 200
# Blocks whose median sets the speed for one operation, centred on the
# block that precedes it.
WINDOW = 9


class HostClock:
    def __init__(self):
        g = np.random.default_rng(0)
        a = g.standard_normal((9, 9)) + 1j * g.standard_normal((9, 9))
        self._mat = a + a.conj().T
        self.samples_ms: list = []
        # For each operation, the index of the last block before it.
        self.marks: list = []
        self._last = -float("inf")
        self._block()  # warm-up, not recorded

    def _block(self) -> float:
        t0 = time.perf_counter()
        for _ in range(_ITERS):
            w, v = np.linalg.eigh(self._mat)
            float(np.trace((v * w) @ v.conj().T).real)
            s = 0
            for i in range(200):
                s += i * i
        return (time.perf_counter() - t0) * 1e3

    def tick(self) -> None:
        """Time one block if ``EVERY_S`` has passed since the last one."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.samples_ms.append(self._block())
            self._last = time.perf_counter()

    def before_op(self) -> None:
        self.tick()
        self.marks.append(len(self.samples_ms) - 1)

    def scales(self) -> list:
        """Per operation, the factor from its time to its time at the
        nominal speed: from the median of the WINDOW blocks nearest it."""
        out = []
        for b in self.marks:
            lo = max(0, min(b - WINDOW // 2, len(self.samples_ms) - WINDOW))
            out.append(NOMINAL_MS / statistics.median(self.samples_ms[lo:lo + WINDOW]))
        return out
