"""The machine-speed probe every reported time is scaled by.

Shared machines change speed by up to half for seconds at a time.  A fixed
pure-Python task that never calls the library runs around each timed piece
of work; its median time over a window gives the machine's speed there, and
the work's time is multiplied by PROBE_SECONDS over that median.  Times then
read as on a machine where the probe takes PROBE_SECONDS.  This module
imports nothing from pathgauge, so the import-time probe can use it before
the package is loaded.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

PROBE_SECONDS = 7e-4
PROBE_WINDOW = 3  # probes on each side of a job whose median gives its speed


@dataclass(frozen=True)
class _Perm:
    images: tuple

    def mul(self, other: _Perm) -> _Perm:
        return _Perm(tuple(self.images[i] for i in other.images))


def probe() -> float:
    """Seconds a fixed task takes now: integer arithmetic, then frozen-dataclass
    calls, tuples and a set, as the library's own hot paths do.  The garbage
    collector is paused while it runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = 0
        for i in range(2500):
            total += i * i % 7
        p, q, seen = _Perm((1, 2, 0, 4, 3)), _Perm((4, 0, 1, 2, 3)), set()
        for _ in range(150):
            p = p.mul(q)
            seen.add(p)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_factor(probes: list[float]) -> float:
    return PROBE_SECONDS / statistics.median(probes)


def scaled_seconds(work) -> float:
    """Run `work()` between two sets of probes; its time, scaled."""
    probes = [probe() for _ in range(2 * PROBE_WINDOW)]
    t0 = time.perf_counter()
    work()
    took = time.perf_counter() - t0
    probes += [probe() for _ in range(2 * PROBE_WINDOW)]
    return took * speed_factor(probes)
