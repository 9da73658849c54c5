"""The host's speed, sampled while a workload runs, to put times on one scale.

On a shared host a core's speed changes by up to 2x from one moment to the
next, for seconds to minutes at a time (presumably another tenant on the
same physical core).  Raw wall times then spread by 30-40% between runs of identical
work, far more than any change worth measuring.  So every time the
benchmark reports is converted to seconds at a fixed reference speed.

SpeedProbe times a fixed kernel of exact rational work (pure Python, like
nvaw's own, and independent of nvaw) from a SIGALRM handler every PERIOD_S
seconds, and on demand between operations; a sample is the fastest of RUNS
kernel runs.  An interval of work is then
worth, at reference speed, the sum over its pieces of
    piece length * (NOMINAL_S / kernel time around that piece) ** exponent,
with the kernel runs themselves left out.  At reference speed the kernel
takes NOMINAL_S.  The exponent says how strongly a workload's speed follows
the kernel's: work that spends time in process start-up and the operating
system slows less than pure Python arithmetic (see workloads.py).  The scale is proportional to real time for a given
workload; the raw times are kept in the run record.
"""

import bisect
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

NOMINAL_S = 0.002
PERIOD_S = 0.25
RUNS = 3


def kernel():
    """Gauss-Jordan elimination of a fixed 9x9 rational matrix."""
    n = 9
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4)
             for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return rows


class SpeedProbe:
    def __init__(self):
        self.starts = []  # start time of each sample, increasing
        self.took = []  # its duration
        self.speed = []  # 1 / kernel time
        self.on_sample = None  # called with each run's duration
        self._in_sample = False

    def sample(self, *_):
        """Time the kernel now (also the SIGALRM handler): the fastest of
        RUNS runs, so that a cache left cold by the work, or one
        interruption, does not count as a slow host."""
        if self._in_sample:
            return
        self._in_sample = True
        t0 = time.perf_counter()
        fastest = float("inf")
        for _ in range(RUNS):
            t = time.perf_counter()
            kernel()
            fastest = min(fastest, time.perf_counter() - t)
        self.starts.append(t0)
        self.took.append(time.perf_counter() - t0)
        self.speed.append(1 / fastest)
        if self.on_sample is not None:
            self.on_sample(self.took[-1])
        self._in_sample = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    @contextmanager
    def paused(self):
        """No timed samples inside; only those taken with sample()."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def interval(self, start, end, exponent):
        """(raw, reference) seconds of work between start and end, without
        the kernel runs inside.  Needs a sample before start and after end.

        `exponent` is how strongly the work's speed follows the kernel's:
        a piece counts (NOMINAL_S / kernel time) ** exponent times its
        length."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        assert 0 < lo and hi < len(self.starts), "interval not bracketed"
        raw = ref = 0.0
        t, speed = start, self.speed[lo - 1]
        for i in range(lo, hi + 1):
            nxt = min(self.starts[i], end)
            here = self.speed[i]
            raw += nxt - t
            ref += (nxt - t) * (NOMINAL_S * (speed + here) / 2) ** exponent
            t, speed = self.starts[i] + self.took[i], here
        return raw, ref
