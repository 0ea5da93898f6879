"""The host's current speed, read from a fixed pure-Python kernel.

The 2-vCPU guest this benchmark was written on switches between speeds
1.4-1.7x apart, often within seconds, for the whole guest at once; bfl's
pure-Python loops and this kernel slow down together.  So each end-to-end
time is also given at the reference speed, the speed at which one kernel
run takes REF_S: every stretch of the measured time is scaled by REF_S over
the kernel's time sampled at its two ends.

- A `Sampler` times the kernel from a SIGALRM handler every INTERVAL
  seconds while it is active, so long operations are sampled throughout;
  the handler's own time is left out of what it measures.
- `sample()` times the kernel once, for things too short to need the
  timer (a set-up probe, timed by its parent before and after).

The kernel is the benchmark's own code, so a change to bfl cannot change
its time.  It does what bfl's inner loops do: tuple permutation products,
set and dict membership, small-int arithmetic.
"""

import signal
import statistics
import time

REF_S = 0.0025  # seconds per kernel run at the reference speed
INTERVAL = 0.1  # seconds of wall time between a Sampler's samples

_DEGREE = 80
_PERM = tuple((7 * i + 3) % _DEGREE for i in range(_DEGREE))
_START = tuple(range(_DEGREE))


def kernel():
    x, seen, table, acc = _START, set(), {}, 0
    for step in range(300):
        x = tuple([x[i] for i in _PERM])
        seen.add(x)
        for v in x[:16]:
            key = (v * step) % 97
            table[key] = table.get(key, 0) + 1
            acc = (acc * 31 + v) % 1000003
    return acc, len(seen), len(table)


def sample():
    """Seconds per kernel run now: the median of three timed runs."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def scaled(seconds, before, after):
    """seconds at the reference speed, given samples taken around it."""
    return seconds * REF_S / ((before + after) / 2)


class Sampler:
    """Samples the kernel every INTERVAL s of wall time while active.

    Use as a context manager around the timed work; it samples once on
    entry and once on exit as well.  Afterwards `wall()` is the time spent
    outside the samples and `wall_ref()` that time at the reference speed.
    """

    def __init__(self):
        self.marks = []  # (start, end) of each kernel run

    def _sample(self, *_):
        t = time.perf_counter()
        kernel()
        self.marks.append((t, time.perf_counter()))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False

    def _stretches(self):
        """(seconds between consecutive samples, kernel times at its ends),
        the kernel times smoothed by a running median of three so that one
        interrupted sample does not skew its stretch."""
        k = [e - s for s, e in self.marks]
        smooth = [statistics.median(k[max(0, i - 1):i + 2])
                  for i in range(len(k))]
        for i in range(1, len(self.marks)):
            yield (self.marks[i][0] - self.marks[i - 1][1],
                   smooth[i - 1], smooth[i])

    def wall(self):
        return sum(d for d, _, _ in self._stretches())

    def wall_ref(self):
        return sum(scaled(d, a, b) for d, a, b in self._stretches())
