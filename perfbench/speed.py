"""Machine-speed sampling while an operation runs.

Other tenants of the machine slow its cores by up to 2x, for stretches of
a fraction of a second to tens of seconds (see README.md, Noise).  A raw
wall time therefore measures how busy the machine was as much as what the
code costs.  While an operation runs, a SIGALRM handler runs a fixed
calibration loop of small numpy operations (no sdiging code) every
``INTERVAL_S`` and records when it ran and how long it took.  A time
measured over a window of the operation is reported as

    (window wall time - calibration time inside it)
        * NOMINAL_S / (mean calibration time inside it)

that is, the time the window would have taken at the speed at which the
calibration loop takes ``NOMINAL_S``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
LOOP_ITERS = 150
# The calibration loop's time on the machine the baseline was measured on,
# in its fast state, so that normalized times read close to raw ones there.
NOMINAL_S = 1.0e-3
# A window with fewer samples than this uses the whole operation's mean.
MIN_SAMPLES = 3


class SpeedSampler:
    """Context manager: samples the calibration loop while it is open."""

    def __init__(self):
        self._c = np.random.default_rng(0).normal(size=(30, 4))
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _loop(self):
        c = self._c
        x, s, table = np.zeros(4), np.zeros(4), np.zeros((30, 4))
        for i in range(LOOP_ITERS):
            h = (7 * i) % 30
            z = -float(c[h] @ x)
            g = 0.01 * x - c[h] / (1.0 + np.exp(-z))
            s += g - table[h]
            table[h] = g
            x = x - 0.001 * s

    def _on_alarm(self, signum, frame):
        t = time.perf_counter()
        self._loop()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_in(self, start: float, end: float) -> float | None:
        inside = [d for s, d in zip(self.starts, self.durations) if start <= s < end]
        return statistics.fmean(inside) if len(inside) >= MIN_SAMPLES else None

    def factor(self, start: float, end: float, fallback: float = 1.0) -> float:
        """NOMINAL_S / mean calibration time in the window (or ``fallback``)."""
        mean = self.mean_in(start, end)
        return fallback if mean is None else NOMINAL_S / mean

    def normalized(self, start: float, end: float, fallback: float = 1.0) -> float:
        """Wall time of [start, end), net of calibration, at nominal speed."""
        net = (end - start) - sum(d for s, d in zip(self.starts, self.durations)
                                  if start <= s < end)
        return net * self.factor(start, end, fallback)
