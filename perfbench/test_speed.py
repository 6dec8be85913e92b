"""Tests of the speed-normalized clock.

    python3 -m pytest -q perfbench
"""

import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import PERIOD_S, SpeedClock  # noqa: E402


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(i * i for i in range(200))


def test_clock_samples_while_busy_and_never_runs_backwards():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedClock() as clock:
        readings = []
        start = time.perf_counter()
        while time.perf_counter() - start < 10 * PERIOD_S:
            _busy(PERIOD_S / 10)
            readings.append(clock.now())
    assert clock.samples >= 3
    assert readings == sorted(readings)
    assert readings[-1] > 0
    # the timer is off and the previous handler is back
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_no_sample_is_taken_while_waiting():
    import threading
    done = threading.Event()
    with SpeedClock() as clock:
        # the main thread waits in threading.py for the whole interval
        threading.Timer(6 * PERIOD_S, done.set).start()
        done.wait()
    assert clock.samples == 0
