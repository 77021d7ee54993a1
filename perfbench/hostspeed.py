"""Host speed, measured with a fixed probe between the benchmark's timed blocks.

The small shared hosts this benchmark is sized for lend their cores to other
tenants, and the simulator's speed swings by up to a factor of two in phases
of seconds to minutes: one open-field city flown over and over for six minutes
took between 1.0 and 2.0 s, with slow phases over a minute long. No statistic
over a 50 s run removes a phase that covers the whole run.

So the benchmark times this probe, a fixed mix of interpreter work and array
gathers like the simulator's tick loop, before and after each timed block, and
scales the block by the speed the two probes show. A time so scaled is in
*reference seconds*: seconds on a host where the probe takes `REF_S`. Raw host
seconds are reported next to them.

The probe runs between blocks, never inside one, and with the garbage
collector off, so the simulator's own work does not slow it.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# Probe time in the fastest phases seen on a shared 2-core x86-64 host
# (Python 3.11, numpy 2.4).
REF_S = 0.011


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = rng.random(1 << 20).astype(np.float32)  # 4 MB
        self._index = rng.integers(0, len(self._table), 1 << 17)
        self.last_s = self.measure()

    def measure(self) -> float:
        """Seconds taken by the probe, once."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = time.perf_counter()
            acc, slots = 0.0, {}
            for i in range(30000):
                acc += math.hypot(i * 0.5, 3.0)
                slots[i & 255] = acc
            for _ in range(12):
                acc += float(self._table[self._index].sum())
            return time.perf_counter() - t
        finally:
            if enabled:
                gc.enable()

    def speed(self) -> float:
        """Reference seconds per host second over the block since the last call."""
        before, self.last_s = self.last_s, self.measure()
        return 2.0 * REF_S / (before + self.last_s)
