"""Wall time corrected for how fast the machine is running right now.

The sandbox's two cores are shared: a fixed loop here runs anywhere from
0.6x to 1.5x its median time, in plateaus that last one to five seconds
(CPU time tracks wall time, so it is contention, not descheduling).  Raw
timings of the same code then spread 20-30% between runs, wider than any
bound the benchmark could set.  So every timed region is bracketed by a
short fixed *probe* — interpreter bytecode, small NumPy calls, a dict —
and reported with the *speed factor* ``probe time / REFERENCE_S`` that
applied, so that times can be brought to what they would read on a
machine where the probe takes ``REFERENCE_S``.  The probe never runs while the system under test is busy, so contention the
workload causes itself (two clients against two workers) is left in.

The probe cannot see the other disturbance: the hypervisor taking a
virtual CPU away (*steal* time), which halves the throughput of the
multi-process ``http_mix`` while a single-threaded probe barely
notices.  :class:`StealMeter` reads it from ``/proc/stat``, per pass.

How the two readings are used is in ``workloads.Run``.  Raw,
uncorrected figures are kept beside the corrected ones in every result
record.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: What the probe takes on this sandbox when nothing else contends.
REFERENCE_S = 0.30e-3
#: A probe older than this is repeated before the next timed region.
_FRESH_S = 0.005

_A = np.linspace(0.0, 1.0, 64)
_B = np.linspace(1.0, 2.0, 64)
_M = np.outer(_A, _B)


def _kernel() -> float:
    start = time.perf_counter()
    total, seen = 0.0, {}
    for i in range(300):
        total += float(np.dot(_A, _B))
        seen[i & 255] = total
        if not i & 63:
            (_M @ _M).sum()
    return time.perf_counter() - start


def probe() -> float:
    """Seconds the fixed probe kernel takes now.

    The faster of two runs: the first also re-warms the caches the
    timed region (a build, a burst of server processes) left cold, which
    is the workload's own doing and not the machine's speed.
    """
    return min(_kernel(), _kernel())


def _steal_ticks() -> int:
    """Cumulative stolen ticks over all CPUs (0 where not reported)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


class StealMeter:
    """Share of CPU time the hypervisor took since construction."""

    def __init__(self) -> None:
        self._ticks = _steal_ticks()
        self._start = time.perf_counter()

    def share(self) -> float:
        elapsed = time.perf_counter() - self._start
        capacity = elapsed * os.sysconf("SC_CLK_TCK") * (os.cpu_count() or 1)
        return (_steal_ticks() - self._ticks) / max(capacity, 1.0)


class Clock:
    """Times calls and reports the machine-speed factor that applied."""

    def __init__(self) -> None:
        self._last = probe()
        self._at = time.perf_counter()

    def timed(self, fn, *args):
        """``(fn(*args), raw_seconds, factor)`` with ``factor`` the mean
        of the probes before and after, over ``REFERENCE_S``."""
        if time.perf_counter() - self._at > _FRESH_S:
            self._last = probe()
        before = self._last
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        self._last = probe()
        self._at = time.perf_counter()
        return result, raw, (before + self._last) / 2.0 / REFERENCE_S
