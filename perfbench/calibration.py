"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants the speed of the same Python code
drifts by a third or more, within seconds and over minutes: one run of the
benchmark can take 12 s and the next 18 s with nothing changed, and no
statistic of the run's own timings removes that.  So, while a run measures,
a fixed pure-Python kernel independent of g2kit is timed every PERIOD_S
from a SIGALRM handler (in the main thread: the run stays single-threaded).
A span of work is then rescaled by REFERENCE_S over the median kernel time
around it, after the handler's own time inside the span is taken out.
Calibrated times are seconds at the speed at which the kernel takes
REFERENCE_S; the raw times are recorded beside them.  A set-up probe, a
separate interpreter, times the kernel itself with kernel_times().
"""

from __future__ import annotations

import signal
import statistics
import time

# Kernel time, in seconds, on the machine the benchmark was tuned on (two
# vCPUs of a 2.0 GHz Xeon, Python 3.11).  Only a scale: calibrated times
# are seconds at this kernel speed.
REFERENCE_S = 0.0015
PERIOD_S = 0.1
# Kernel samples this far around a span also count for its speed, so that
# spans shorter than PERIOD_S get one.
MARGIN_S = 0.5


class _Poly:
    """Truncated polynomial over F_11: the same kind of interpreted work
    (small objects, tuples, integer arithmetic mod p) as g2kit's scalars."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def mul(self, other, p=11, n=8):
        out = [0] * n
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                if i + j < n:
                    out[i + j] = (out[i + j] + a * b) % p
        return _Poly(tuple(out))


def kernel(reps: int = 150):
    x = _Poly((1, 2, 3, 4, 5, 6, 7, 8))
    y = _Poly((3, 1, 4, 1, 5, 9, 2, 6))
    for _ in range(reps):
        x = x.mul(y)
    return x.c


def kernel_times(count: int = 5):
    """Durations of `count` kernel runs, for a process without a sampler."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


class SpeedSampler:
    """``with SpeedSampler() as s:`` times the kernel every PERIOD_S."""

    def __init__(self):
        self.samples = []        # (start, duration) of each kernel timing
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median kernel time around [start, end]."""
        around = [d for t, d in self.samples
                  if start - MARGIN_S <= t < end + MARGIN_S]
        return REFERENCE_S / statistics.median(around) if around else 1.0

    def calibrate(self, start: float, end: float, *raw: float):
        """Calibrated values of durations (wall, cpu, ...) measured over
        [start, end]: the kernel's own time inside is taken out, and the
        rest rescaled to REFERENCE_S."""
        inside = sum(d for t, d in self.samples if start <= t < end)
        factor = self.factor(start, end)
        return tuple((x - inside) * factor for x in raw)

    def slowdown(self) -> float:
        """Median kernel time over REFERENCE_S: how slow the host ran."""
        if not self.samples:
            return 1.0
        return statistics.median(d for _, d in self.samples) / REFERENCE_S
