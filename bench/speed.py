"""A fixed probe of the CPU's current speed, and seconds scaled by it.

On a shared machine the speed one process gets drifts: on a
2-vCPU virtual machine (Xeon, 2.1 GHz), a fixed pure-Python loop took
anywhere from 13 to 22 ms depending on the minute, and whole runs of
the same work moved by up to 2x, far more than any bound a benchmark
could hold.  The drift is slow next to a step, so the benchmark runs
this probe between steps (never inside one) and scales each step's
seconds by ``(PROBE_REF_S / probe) ** ELASTICITY``, with the median
probe time around the step.  The scaled times are "reference seconds":
roughly what the step would take on a machine where the probe takes
``PROBE_REF_S``.  Raw seconds are kept next to them in the result file.

The probe and the constants must never change: all recorded numbers
are in their units.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

PROBE_REF_S = 1.0e-3
PROBE_EVERY_S = 0.05  # probe again once this much time has passed
PROBE_REPS = 2  # keep the fastest of this many probe runs
WINDOW_S = 1.0  # a step is scaled by the median probe within this much of it
# How much the library slows for a given slowdown of the probe.  The
# probe is small and cache-resident and swings more than the library
# does under the same contention: scaling by the full ratio over-corrects
# (runs slowed by load came out fastest).  Over 10 seeds x 3 workloads,
# the quartile spread of wall_s across runs was least at an elasticity of
# 0.6-0.7 on every workload (e.g. law-corpus 0.27 raw, 0.15 at 1.0,
# 0.04 at 0.65).
ELASTICITY = 0.65


def _probe_work():
    d, s, window = {}, 0.0, []
    for i in range(3000):
        k = i % 97
        d[k] = d.get(k, 0) + 1
        s += k * 0.5
        window.append((k, s))
        if len(window) > 50:
            window.pop(0)
    return s


def probe():
    """Seconds the fixed probe takes right now (fastest of a few runs)."""
    best = float("inf")
    for _ in range(PROBE_REPS):
        t0 = perf_counter()
        _probe_work()
        best = min(best, perf_counter() - t0)
    return best


class Scaler:
    """Turns raw step seconds into reference seconds.

    ``tick`` probes when one is due (between steps) and logs the time
    and result.  ``add`` queues a step measured from ``t0`` to ``t1``.
    ``flush`` probes once more and settles every queued step with the
    median of the probes from ``WINDOW_S`` before it started to
    ``WINDOW_S`` after it ended.  One probe catches the machine in one
    millisecond; the median of the probes around a step follows the
    slower drift that the step itself sees.
    """

    def __init__(self):
        self.log = []  # (time, probe seconds)
        self.queue = []
        self._probe()

    def _probe(self):
        self.log.append((perf_counter(), probe()))

    def tick(self):
        if perf_counter() - self.log[-1][0] >= PROBE_EVERY_S:
            self._probe()

    def add(self, t0, t1, sink):
        self.queue.append((t0, t1, sink))

    def flush(self):
        self._probe()
        times = [t for t, _ in self.log]
        factors = {}  # by probe window: thousands of short steps share a few
        for t0, t1, sink in self.queue:
            window = bisect_left(times, t0 - WINDOW_S), bisect_right(times, t1 + WINDOW_S)
            if window not in factors:
                near = [p for _, p in self.log[slice(*window)]] or [self.log[-1][1]]
                factors[window] = (PROBE_REF_S / statistics.median(near)) ** ELASTICITY
            sink((t1 - t0) * factors[window], t1 - t0)
        if self.queue:
            first = min(t0 for t0, _, _ in self.queue)
            self.log = [(t, p) for t, p in self.log if t >= first - WINDOW_S] or self.log[-1:]
        self.queue = []
