"""Machine-speed reference: one fixed kernel, timed while a pass runs.

A shared machine's speed drifts: on a 2-CPU Xeon VM the same pure-Python
work took anywhere from 1x to 2x as long within a few minutes.  Timing the
same small kernel all through a pass tells how fast the machine ran
meanwhile; scaling the pass's wall time by NOMINAL_S over the median
kernel time reports it at one fixed reference speed.  The kernel is a
sparse product of Fraction matrices held in dicts, the same kind of work
as the engine, and it never calls hopfcyclic, so a change to the program
cannot move it except through the shared caches.  The kernel slows down
somewhat more than the engine when the machine is busy, so the rescaling
removes about half of the pass-to-pass spread, not all of it.
"""

import random
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05     # CPU seconds between two samples (SIGPROF)
MIN_SAMPLES = 7
NOMINAL_S = 0.001   # kernel time at the reference speed

_rng = random.Random(2007)
_A = {(_rng.randrange(40), _rng.randrange(40)):
      Fraction(_rng.randrange(1, 9), _rng.randrange(1, 5)) for _ in range(120)}
_ROWS = {}
for (_i, _j), _v in _A.items():
    _ROWS.setdefault(_i, []).append((_j, _v))


def kernel():
    """A*A for the fixed sparse matrix A, as a dict."""
    out = {}
    for (i, k), a in _A.items():
        for j, b in _ROWS.get(k, ()):
            v = out.get((i, j), 0) + a * b
            if v:
                out[(i, j)] = v
            else:
                out.pop((i, j), None)
    return out


def time_kernel():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(samples):
    """Factor that takes a wall time to the reference speed."""
    return NOMINAL_S / statistics.median(samples)


class Sampler:
    """Times the kernel every PERIOD_S of process CPU time inside the block,
    and at least MIN_SAMPLES times in all (topping up right after it).
    `inside_s` is the kernel time spent inside the block."""

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.inside_s = sum(self.samples)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(time_kernel())

    def _sample(self, signum, frame):
        self.samples.append(time_kernel())

    def scale(self):
        return scale(self.samples)
