"""Pass timing rescaled to a reference machine speed.

The benchmark was built on a shared virtual machine where the same
pure-Python loop runs up to 1.7 times slower from one moment to the
next, in phases lasting from a fraction of a second to tens of seconds.
To time the program rather than the neighbours, a short calibration loop
runs every ``TICK_S`` seconds from a ``SIGALRM`` handler while a stage
runs, and a few times around each stage.  The clock ``now`` leaves out
the time spent in those loops, and a stage's time at reference speed is
its time multiplied by the mean of ``REFERENCE_CALIBRATION_S / c`` over
the loop times ``c`` sampled during and around it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

#: Iterations of the calibration loop, and its time on a quiet core of
#: the reference machine (its 10th percentile there).
CALIBRATION_ITERS = 10_000
REFERENCE_CALIBRATION_S = 0.0033
#: Interval of the in-stage samples, and samples taken around each stage.
TICK_S = 0.1
BOUNDARY_SAMPLES = 4

_paused = 0.0


def now() -> float:
    """``time.perf_counter`` without the time spent calibrating."""
    return time.perf_counter() - _paused


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop of the integer, tuple and
    dict work latcover does: the machine's speed at this moment."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(CALIBRATION_ITERS):
        key = (i & 255, i % 7)
        acc += table.get(key, 0) + i * i % 11
        table[key] = acc & 0xFFFF
    return time.perf_counter() - t0


def speed_factor(samples) -> float:
    """Mean of reference time over sampled time: below 1 on a busy core."""
    return statistics.fmean(REFERENCE_CALIBRATION_S / c for c in samples)


def boundary_samples() -> list[float]:
    return [calibrate() for _ in range(BOUNDARY_SAMPLES)]


class Stages:
    """Times a pass's stages, at raw and at reference speed.

    ``span(name)`` is the context manager the workloads time each stage
    with; it also opens the tracer's span of the same name.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        #: (stage name, raw seconds, seconds at reference speed, samples)
        self.records: list[tuple[str, float, float, int]] = []
        self._samples: list[float] = []
        self._around: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        global _paused
        t0 = time.perf_counter()
        self._samples.append(calibrate())
        _paused += time.perf_counter() - t0

    @contextmanager
    def span(self, name: str):
        if not self._around:
            self._around = boundary_samples()
        self._samples = list(self._around)
        with self.tracer.span(name):
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
            t0 = now()
            try:
                yield
            finally:
                seconds = now() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
        self._around = boundary_samples()
        samples = self._samples + self._around
        self.records.append((name, seconds, seconds * speed_factor(samples), len(samples)))

    def raw_wall_s(self) -> float:
        return sum(r[1] for r in self.records)

    def wall_s(self) -> float:
        return sum(r[2] for r in self.records)
