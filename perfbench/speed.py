"""CPU-speed calibration, to keep the host's speed changes out of timings.

On a shared host the CPU speed a process gets changes by tens of percent
within seconds and drifts over minutes: on a 2-vCPU Intel Xeon VM the same
pure-Python loop took from 0.17 s to 0.27 s within one minute, and
identical benchmark jobs varied as much.  That is noise from other tenants,
not a property of ghostkit, and it is wider than any useful regression
bound.

So the process being measured runs a short, fixed pure-Python loop between
the operations it times, one sample for each ``EVERY_NS`` that has passed,
outside every timed interval.  The mean sample time over a stretch, divided
by ``REFERENCE_NS``, is the stretch's *slowness*, and the benchmark divides
the stretch's timings by it: they read as on a machine on which the loop
takes ``REFERENCE_NS``.  The loop allocates no objects the garbage
collector tracks, so it does not change when ghostkit's collections run.
It is part of the benchmark, so a change to ghostkit cannot move it.

Samples are taken between operations, not from a timer signal: samples
taken right after a timer interrupt read slow when the op loop did not.
"""

from __future__ import annotations

import statistics
import time

# Mean time of calibration_loop() on a 2-vCPU Intel Xeon VM (Python 3.11.7).
REFERENCE_NS = 600_000
EVERY_NS = 10_000_000
OUTLIER = 3

_INDEX = list(range(256))
_TABLE = dict.fromkeys(range(64), 0)


def calibration_loop() -> int:
    table, index, acc = _TABLE, _INDEX, 0
    for i in range(1500):
        k = index[i & 255] & 63
        table[k] = table[k] + i
        acc += len(str(i))
    return acc


class Speedometer:
    """Calibration samples taken through one stretch of timed work."""

    def __init__(self):
        self.samples: list[int] = []  # ns
        self.last = time.perf_counter_ns()

    def _sample(self) -> None:
        start = time.perf_counter_ns()
        calibration_loop()
        self.last = time.perf_counter_ns()
        self.samples.append(self.last - start)

    def catch_up(self) -> None:
        """Take one sample for each ``EVERY_NS`` since the last sample."""
        for _ in range((time.perf_counter_ns() - self.last) // EVERY_NS):
            self._sample()

    def slowness(self) -> float:
        """Mean sample time over ``REFERENCE_NS``; samples once if need be.

        A sample over ``OUTLIER`` times the median was descheduled part of
        the time, which says nothing about CPU speed, and is left out.
        """
        if not self.samples:
            self._sample()
        cut = OUTLIER * statistics.median(self.samples)
        return statistics.fmean(x for x in self.samples if x <= cut) / REFERENCE_NS
