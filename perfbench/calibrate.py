"""Machine-speed calibration.

On a shared machine the CPU speed one process sees drifts by up to half
over minutes, and jumps in phases of a few seconds, because of other
tenants.  A run therefore times a fixed reference chunk before every cycle
of the corpus and after the last one, and divides each operation's latency
by the speed factor of the samples around its cycle: the chunk's measured
time over its nominal time.  Reported times are thus seconds on a machine
that runs the chunk in NOMINAL_S.  The chunk does the kind of interpreter
work the package does: set-based graph search, dict and tuple traffic, and
big-integer bit masks.  Each item is then timed by the median of its
calibrated replays, which evens out what the calibration misses.
"""
from __future__ import annotations

import gc
import random
import time

NOMINAL_S = 0.01
_REPEATS = 4
_NODES = 160
_WIDTH = 1 << 12


class Reference:
    def __init__(self):
        rng = random.Random(20110411)
        self.adj = {u: tuple(rng.randrange(_NODES) for _ in range(3)) for u in range(_NODES)}
        self.masks = [rng.getrandbits(_WIDTH) for _ in range(64)]

    def _chunk(self) -> int:
        total = 0
        for start in range(0, _NODES, 8):
            seen = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for v in self.adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            total += len(seen)
        counts: dict[tuple[int, int], int] = {}
        for u, vs in self.adj.items():
            for v in vs:
                key = (min(u, v), max(u, v))
                counts[key] = counts.get(key, 0) + 1
        acc = 0
        for i, m in enumerate(self.masks * 8):
            acc = (acc ^ m) & (m | (acc >> (i % 7)))
        return total + len(counts) + acc.bit_count()

    def sample(self) -> float:
        """Seconds one reference chunk takes now.  The garbage collector is
        off while it runs, so that the factor follows the CPU's speed and not
        the size of the heap the package under test keeps alive."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(_REPEATS):
                self._chunk()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


def factor(before: float, after: float) -> float:
    """How much slower than nominal the machine ran between two samples."""
    return (before + after) / 2 / NOMINAL_S
