"""A clock that corrects wall time for the host's changing speed.

This host shares its cores with other tenants, and their load changes how
fast the same code runs: the reference kernel below read 215 µs in some
stretches and 440 µs in others, and whole 5-s replays of one trace varied
by 1.5x within a run and between runs. Medians over a run do not remove that; only a
measurement taken next to the program's own work does.

While a ``SpeedClock`` runs, a SIGALRM every ``INTERVAL_S`` of wall time
interrupts the program (between bytecodes) and times ``reference_kernel``:
small numpy products and dict updates, the same kind of work as the
program's inner loops. The clock advances each interval's wall time scaled
by ``NOMINAL_REF_S`` over the kernel's time at the start of the interval,
and stands still while the kernel runs. A corrected time therefore reads as
the wall time the work would take on a core where the kernel takes
``NOMINAL_REF_S``, about an idle core of the 2-vCPU Xeon (Sapphire Rapids
class) host the benchmark was built on. The reference is the benchmark's own
code, so a change to the program moves corrected times as it moves wall
time; the ``detail`` record keeps the plain wall times next to them.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.025
NOMINAL_REF_S = 250e-6

_PLANES = np.random.default_rng(0).standard_normal((16, 64))
_POINTS = np.random.default_rng(1).standard_normal((64, 64))


def reference_kernel() -> dict:
    """Fixed work: 60 sign-bit signatures of 64-d points, counted in a dict."""
    counts = {}
    for i in range(60):
        key = int(((_PLANES @ _POINTS[i & 63]) > 0).sum())
        counts[key] = counts.get(key, 0) + 1
    return counts


def time_reference() -> float:
    """Faster of two back-to-back runs of the kernel; the first warms the
    caches the program's work has just evicted."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class WallClock:
    """Plain wall time, with the interface of ``SpeedClock``."""

    def __init__(self):
        self.samples: list[float] = []
        self._start = time.perf_counter()

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        return False

    def now(self) -> float:
        return time.perf_counter() - self._start

    wall = now


class SpeedClock:
    """Speed-corrected seconds since ``__enter__``; see the module docstring.

    Used as a context manager around the timed work; it installs the SIGALRM
    handler and interval timer on entry and restores both on exit. ``now()``
    may be interrupted by the handler, so it rereads until no tick came
    between its reads.
    """

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self):
        self.samples = []
        self._ticks = 0
        self._in_tick = False
        self._corrected = 0.0
        self._start = time.perf_counter()
        self._scale = self._measure()
        self._paused = time.perf_counter() - self._start
        self._mark = self._start + self._paused
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _measure(self) -> float:
        ref = time_reference()
        self.samples.append(ref)
        return NOMINAL_REF_S / ref

    def _tick(self, signum, frame) -> None:
        if self._in_tick:  # a tick that lands inside a slow tick is dropped
            return
        self._in_tick = True
        t0 = time.perf_counter()
        self._corrected += (t0 - self._mark) * self._scale
        self._scale = self._measure()
        t1 = time.perf_counter()
        self._paused += t1 - t0
        self._mark = t1
        self._ticks += 1
        self._in_tick = False

    def now(self) -> float:
        while True:
            ticks = self._ticks
            value = self._corrected + (time.perf_counter() - self._mark) * self._scale
            if ticks == self._ticks:
                return value

    def wall(self) -> float:
        """Wall seconds since entry, less the time spent in the kernel."""
        while True:
            ticks = self._ticks
            value = time.perf_counter() - self._start - self._paused
            if ticks == self._ticks:
                return value
