"""A clock that runs at the machine's measured speed.

On a shared host the speed of one processor drifts by 30% or more within
seconds, while other tenants come and go.  Wall times of the same work then
spread too widely between runs to show a 10% change.  The drift is slow next
to a millisecond, and it slows all pure-Python work alike.  So the benchmark
measures it: every ``PERIOD_S`` a SIGALRM handler runs a fixed calibration
loop of ``Fraction`` and ``dict`` work (the kind of work hslab's exact kernel
does) and takes its time as the current speed.  ``SpeedClock.now()`` advances
at wall time divided by the speed factor ``calibration time / CAL_REF_S``,
and stands still while the calibration itself runs.

A time read from this clock is the wall time the same work would take on a
machine on which the calibration loop takes ``CAL_REF_S``.  The raw wall
times are reported next to it.

While the interrupted code waits for other processes (a sweep's worker
pool), no sample is taken: the calibration would share the processors with
the workers and misread the speed.  The last factor stays in force.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
CAL_REF_S = 0.0005
_CAL_TERMS = 100

# Interrupted frames from these files are waiting, not computing.
_WAITING = ("threading.py", "selectors.py", "queue.py", "/concurrent/",
            "/multiprocessing/", "subprocess.py")


def calibration_seconds():
    """Best of two runs of the fixed calibration loop."""
    best = None
    for _ in range(2):
        start = time.perf_counter()
        acc = {}
        for i in range(1, _CAL_TERMS):
            a = Fraction(i, i + 7)
            b = Fraction(2 * i + 1, 3 * i + 2)
            acc[i % 5] = acc.get(i % 5, 0) + a * b - b
        took = time.perf_counter() - start
        best = took if best is None else min(best, took)
    return best


class SpeedClock:
    """Speed-normalized clock; use as a context manager around timed work.

    Only the main thread may use it, and only one may run at a time: it
    owns SIGALRM and the real interval timer while it runs.
    """

    def __init__(self):
        # (clock value, wall time, speed factor) at the last sample,
        # replaced as one tuple so that now() never mixes two samples
        self._anchor = None
        self._busy = False
        self._previous = None
        self.samples = 0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        cal = calibration_seconds()
        self._anchor = (0.0, time.perf_counter(), cal / CAL_REF_S)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def now(self):
        value, wall, factor = self._anchor
        return value + (time.perf_counter() - wall) / factor

    def _sample(self, signum, frame):
        if self._busy:
            return
        if frame is not None and any(w in frame.f_code.co_filename
                                     for w in _WAITING):
            return
        self._busy = True
        try:
            start = time.perf_counter()
            value, wall, factor = self._anchor
            value += (start - wall) / factor
            cal = calibration_seconds()
            self._anchor = (value, time.perf_counter(), cal / CAL_REF_S)
            self.samples += 1
        finally:
            self._busy = False
