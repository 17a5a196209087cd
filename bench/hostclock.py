"""Elapsed time at a fixed host speed.

On a shared host the speed of one core drifts by up to 2x within a
second and from one minute to the next, the same way for all CPython
code.  :class:`HostClock` samples that speed while the code under test
runs: a timer signal interrupts the main thread every ``INTERVAL_S``
and times a short fixed probe loop.  Each stretch of work between two
probes is then rescaled by the mean of its two bracketing probe times,
to the speed at which the probe takes ``PROBE_NOMINAL_S``.  The probes'
own time is left out of both the raw and the rescaled time.

Only the main thread of a process without other ``SIGALRM`` users may
run a clock, and it must be stopped before the process forks or spawns
a child.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
# Probe time at the nominal host speed; an uncontended core of a Xeon
# host running CPython 3.11 takes about this long.
PROBE_NOMINAL_S = 0.0005


def probe_seconds() -> float:
    """Time of a fixed loop of Fraction arithmetic and tuple-keyed dict
    updates, the operations that dominate the engine."""
    t0 = perf_counter()
    acc: dict = {}
    scale = Fraction(2, 3)
    for i in range(200):
        key = (i % 31, i % 7)
        x = Fraction(i % 7 + 1, i % 5 + 1) * scale
        old = acc.get(key)
        acc[key] = x if old is None else old + x
    return perf_counter() - t0


class HostClock:
    """Raw and rescaled time of the work done between two :meth:`lap` calls."""

    def __init__(self):
        self.probe_s = 0.0  # time spent in probes since the clock started
        self._busy = False
        self._last_end = 0.0
        self._last_probe = 0.0
        self._raw = 0.0
        self._scaled = 0.0

    def __enter__(self):
        self._busy = True
        self._last_probe = probe_seconds()
        self._last_end = perf_counter()
        self._raw = self._scaled = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._busy = False
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _close_interval(self):
        start = perf_counter()
        probe = probe_seconds()
        end = perf_counter()
        work = start - self._last_end
        self._raw += work
        self._scaled += work * 2 * PROBE_NOMINAL_S / (self._last_probe + probe)
        self._last_probe = probe
        self._last_end = end
        self.probe_s += end - start

    def _on_timer(self, signum, frame):
        if not self._busy:
            self._close_interval()

    def lap(self):
        """(raw seconds, rescaled seconds) of the work since the last lap."""
        self._busy = True
        try:
            self._close_interval()
            lap = (self._raw, self._scaled)
            self._raw = self._scaled = 0.0
            return lap
        finally:
            self._busy = False
