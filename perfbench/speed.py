"""Machine-speed probe for normalizing times on a shared, noisy host.

On a host shared with other tenants the speed of a core drifts by tens of
percent within seconds, so raw wall times of the same code spread too widely
to compare.  While a run measures, a timer interrupts the process every
``PERIOD_S`` and times `reference()`: a fixed mix of interpreter, small-NumPy
and Fraction work that does not call misdpkit, so no change to the package
moves it.  A span of work measured while the reference took ``d`` seconds on
average is rescaled by ``REF_NOMINAL_S / d``: the result is the time that
work would take at the speed the host had when the constant was fixed.  The
reference's own time is subtracted from every measured span first.

Every time here is read from `CLOCK`, the CPU time of the calling thread, not
from a wall clock.  The kernel leaves out of it the time the thread waits for
a core, including the time the hypervisor gives the virtual CPU to another
tenant (steal time), so a busy neighbour does not add to a measured span.
The program is single-threaded and compute-bound, so on a quiet machine its
CPU time and its wall time agree.
"""

import signal
import time
from array import array
from fractions import Fraction

import numpy as np

PERIOD_S = 0.05
# seconds one reference() call took on the machine the baseline was taken on
REF_NOMINAL_S = 0.002
PAD_S = 2 * PERIOD_S  # short spans borrow the samples this close to them
CLOCK = time.thread_time


def reference():
    s = 0
    table = {}
    for i in range(6000):
        s += i * i % 7
        table[i & 63] = s
    a = np.arange(16.0).reshape(4, 4)
    for _ in range(60):
        a = a @ a.T / 1e3 + 1.0
        np.array_equal(a, np.rint(a))
    f = Fraction(1)
    for i in range(1, 80):
        f = f * Fraction(i, i + 1) + Fraction(1, i)
    return s, f


def time_reference(calls):
    """Durations of `calls` back-to-back reference() calls."""
    out = []
    for _ in range(calls):
        t0 = CLOCK()
        reference()
        out.append(CLOCK() - t0)
    return out


def factor(durations):
    """REF_NOMINAL_S over the mean reference time, ignoring interrupted samples."""
    d = np.asarray(durations, dtype=np.float64)
    if d.size == 0:
        return 1.0
    kept = d[d <= 2.0 * np.median(d)]
    return REF_NOMINAL_S / float(kept.mean())


class SpeedProbe:
    """Samples reference() on a timer while active (a context manager)."""

    def __init__(self):
        self.start = array("d")
        self.dur = array("d")

    def _sample(self, signum, frame):
        t0 = CLOCK()
        reference()
        self.start.append(t0)
        self.dur.append(CLOCK() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._t = np.array(self.start, dtype=np.float64)
        self._cum = np.concatenate(([0.0], np.cumsum(np.array(self.dur, dtype=np.float64))))
        return False

    def spent(self, t0, t1):
        """Seconds of reference work that started within [t0, t1).

        Takes floats or arrays.  A sample that starts inside a span also ends
        inside it, because the timer's handler runs to completion before the
        interrupted code resumes.
        """
        return self._cum[np.searchsorted(self._t, t1)] - self._cum[np.searchsorted(self._t, t0)]

    def rescale(self, t0, t1):
        """Work time in [t0, t1), reference time removed, at nominal speed."""
        raw = (t1 - t0) - float(self.spent(t0, t1))
        i, j = np.searchsorted(self._t, (t0 - PAD_S, t1 + PAD_S))
        return raw, raw * factor(self.dur[i:j] if j > i else self.dur)
