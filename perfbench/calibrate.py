"""Machine-speed probe for timing on a shared host.

Host speed on a shared machine swings by tens of percent within a second
and drifts over minutes, far more than the changes the benchmark must
resolve. So while a timed run executes, `SpeedProbe` interrupts it every
PERIOD_S of wall time (SIGALRM) and times a fixed pure-Python kernel. The
mean kernel time over the run says how fast the machine was *during that
run*, and the benchmark reports host time scaled to the kernel's reference
time REFERENCE_S:

    scaled_rate = raw_rate * mean_kernel_s / REFERENCE_S

A slow phase slows the kernel and the run alike, so the scaled figure
stays put, while a change to the program moves the run and not the kernel.
The kernel mixes the kinds of work the simulator does, so that it slows
the way the program slows: interpreted float arithmetic (routing, the
learner), fsum over a full moving-average window (metrics sampling) and
float repr (the CSV writer). Its own time is taken out of the run's wall
time, it creates no container objects (so it never sets off the garbage
collector inside the program), and it never changes, so figures from
two commits stay comparable. It costs about 2% of the run's wall time.

REFERENCE_S is the kernel's median time on the machine the benchmark was
defined on (an Intel Xeon VM, CPython 3.11), where scaled figures read
close to raw ones.
"""
from __future__ import annotations

import signal
import statistics
from collections import deque
from math import exp, fsum
from time import perf_counter

REFERENCE_S = 0.000170
PERIOD_S = 0.01
ITERATIONS = 600
_X = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
_WINDOW = deque((0.1 * i for i in range(1000)), maxlen=1000)


def kernel() -> int:
    acc = 0.0
    x = _X
    for it in range(ITERATIONS):
        v = x[it & 7]
        acc += exp(v - 0.5) * 0.25 + v * v
    acc += fsum(_WINDOW) + fsum(_WINDOW)
    return len(repr(acc) + repr(acc * 0.3) + repr(acc * 0.7))


def kernel_seconds(burst_s: float = 0.02) -> float:
    """Median kernel time over a burst of back-to-back runs."""
    times = []
    end = perf_counter() + burst_s
    while not times or perf_counter() < end:
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Times the kernel every PERIOD_S while `sampling()` is active."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def probe_s(self) -> float:
        """Wall time the kernel itself took while sampling."""
        return sum(self.samples)

    def scale(self) -> float:
        """Mean kernel time over the sampled interval, relative to REFERENCE_S."""
        mean = statistics.fmean(self.samples) if self.samples else kernel_seconds()
        return mean / REFERENCE_S
