"""The machine's speed, sampled all through a timed call.

The benchmark runs on a few cores of a shared host whose speed changes by
tens of percent from one second to the next (the same call, on the same
inputs, takes from 1.0 to 1.7 s within a minute).  A probe of fixed work
runs from a ``SIGALRM`` handler every ``INTERVAL_S`` of wall time while the
measurement is on.  Python runs the handler between bytecodes of the main
thread, so the probes interrupt the workload itself and sample the speed it
runs at, evenly in time.  A timed interval's probes give its net time (the
interval minus the probes in it) and its speed scale (the mean of
``REFERENCE_S`` over each probe's time): net time times scale is the time
the interval would take on a machine where the probe takes ``REFERENCE_S``.

The probe is the benchmark's own code and never calls the package, so a
change to the package cannot change the scale.  Half of it is numpy
arithmetic on 2-vectors, the shape of the package's inner loop at m = 2,
and half a pure-Python loop.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.05
REFERENCE_S = 0.0015  # the probe's time at the reference speed

_G = np.array([[1.0, 0.3], [0.2, 2.0]])


def _probe_work():
    acc = 0.0
    a, b = _G[:, 0], _G[:, 1]
    for _ in range(100):
        d = a - b
        lam = min(1.0, max(0.0, float(b @ (b - a)) / float(d @ d)))
        acc += float(np.linalg.norm(lam * a + (1.0 - lam) * b))
    for i in range(7500):
        acc += i * i % 7
    return acc


class SpeedProbe:
    """Probe times, as (start, end) pairs, taken while :meth:`running`."""

    def __init__(self):
        self.probes = []

    def _fire(self, signum, frame):
        start = time.perf_counter()
        _probe_work()
        self.probes.append((start, time.perf_counter()))

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _within(self, start, end):
        return [e - s for s, e in self.probes if start <= s and e <= end]

    def net(self, start, end):
        """Seconds from ``start`` to ``end`` not spent in probes."""
        return end - start - sum(self._within(start, end))

    def scale(self, start=float("-inf"), end=float("inf")):
        """Speed scale of the probes from ``start`` to ``end``.

        Falls back to all probes so far when none ran in the interval.
        """
        probes = self._within(start, end) or self._within(float("-inf"), float("inf"))
        return statistics.fmean(REFERENCE_S / p for p in probes)
