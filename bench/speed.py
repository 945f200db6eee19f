"""Machine-speed probe: times on a shared host, rescaled to one reference speed.

On a shared host the same pass can take 40% longer from one minute to the
next, because other tenants load the cores.  The probe measures that speed
while the benchmark runs: every ``INTERVAL`` seconds a timer signal runs a
fixed sub-millisecond kernel (small numpy arrays in a Python loop, like the
solvers' inner loops, plus one array-wide finite difference) and records how
long it took.  The kernel uses nothing of minsurflab, so a change of the
program never changes its speed.

A segment's normalised time is its raw time, less the time spent in the
probe, times ``REFERENCE_S`` over the probe's typical duration in that
segment (the mean of its samples less the fastest and slowest tenth):
the seconds the segment would take on a machine that runs the kernel in
``REFERENCE_S`` (about a quiet core of a 2-CPU x86 VM).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.02
REFERENCE_S = 2.5e-4

_FIELD = np.random.default_rng(12345).standard_normal((16, 256))


def kernel() -> float:
    y = np.array([1.0, 0.0, 0.0])
    for _ in range(40):
        y = y + 1e-3 * np.array([y[1], -y[0], y[0] * y[1]])
    d = np.gradient(_FIELD, 0.01, axis=1)
    return float(np.abs(d).max()) + float(y[0])


def typical(samples: list[float]) -> float:
    """Mean of the samples less the fastest and the slowest tenth.

    A sample that lands right after a long compiled call runs on caches the
    program has just flushed; trimming keeps such samples from setting the
    speed of a short segment.
    """
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Probe:
    """Samples the kernel's duration on a timer while it is started."""

    def __init__(self, interval: float = INTERVAL, clock=time.perf_counter):
        self.interval = interval
        self.clock = clock
        self.samples: list[float] = []
        self.busy = 0.0  # seconds spent in the probe so far
        self.running = False
        self._previous = None

    def _sample(self, signum, frame):
        t0 = self.clock()
        kernel()
        dt = self.clock() - t0
        self.samples.append(dt)
        self.busy += dt

    def start(self):
        self.running = True
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        if not self.running:
            return
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self, at: float | None = None) -> tuple:
        """Start of a segment (now, or at an earlier clock reading)."""
        return (self.clock() if at is None else at, len(self.samples), self.busy)

    def seconds(self, since: tuple) -> tuple[float, float]:
        """(raw, normalised) seconds from ``since`` to now, probe time left out.

        A segment too short to hold a sample is rescaled by the mean of all
        samples so far, or by one sample taken now if there are none.  A probe
        that was never started leaves times as they are.
        """
        t0, first, busy0 = since
        raw = self.clock() - t0 - (self.busy - busy0)
        window = self.samples[first:] or self.samples
        if not window:
            if not self.running:
                return raw, raw
            self._sample(None, None)
            window = self.samples
        return raw, raw * REFERENCE_S / typical(window)
