"""Machine-speed probe, so timings on a shared host compare across runs.

On the 2-vCPU x86 box this benchmark was tuned on, one unchanged command's
wall time drifts by up to a third within a minute (``greedy`` on
random_60x50: 1.05 s to 1.88 s over 40 consecutive runs), and its CPU time
drifts with it, so the host's speed moves, not the program's work.  The
benchmark therefore times a fixed loop between commands, a loop no coverplan
change can touch, and scales the commands' time by
``NOMINAL_S / mean(loop samples)``: the time the commands would take on the
host at the speed at which the loop runs in ``NOMINAL_S``.  Set-up repeats
are scaled one by one (:meth:`SpeedProbe.nominal_now`).  The raw wall times
are printed beside the scaled ones.

The host switches between a fast and a slow state every few seconds (the
loop takes about 0.055 s or about 0.08 s), and a command's time grows with
the share of it spent in the slow state.  The mean of the samples follows
that share linearly; their median jumps between the two states, and over 8
runs of one seed of ``refine_cluttered`` it left a spread of 0.17 where the
mean left 0.08 (raw seconds: 0.23).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Typical loop time on the tuning box; only the scale of reported times
# depends on it, not their ratios.
NOMINAL_S = 0.075


class SpeedProbe:
    """Collects loop timings; ``factor`` turns raw seconds into nominal-speed seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # shaped like one sight-line test: 3000 targets against 24 edges
        self._targets = rng.uniform(0.0, 60.0, (3000, 2))
        self._a = rng.uniform(0.0, 60.0, (24, 2))
        self._b = np.roll(self._a, 1, axis=0)
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = perf_counter()
            self._loop()
            self.samples.append(perf_counter() - t0)

    def _loop(self) -> int:
        hits = 0
        for k in range(40):
            src = self._targets[k]
            d = self._targets - src
            for a, b in zip(self._a, self._b):
                c1 = d[:, 0] * (a[1] - src[1]) - d[:, 1] * (a[0] - src[0])
                c2 = d[:, 0] * (b[1] - src[1]) - d[:, 1] * (b[0] - src[0])
                hits += int(np.count_nonzero((c1 * c2 < 0) & (np.hypot(d[:, 0], d[:, 1]) > 1)))
        return hits

    def nominal_now(self, seconds: float) -> float:
        """``seconds`` at nominal speed, judged by the latest sample alone.

        For intervals far shorter than the host's fast and slow states, such
        as one set-up, the sample just before them sees the state they ran in:
        over 8 runs of ``certify`` set-up, the median of ten repeats scaled
        this way spread 0.03, scaled by the mean factor 0.05, raw 0.08.
        """
        return seconds * NOMINAL_S / self.samples[-1]

    def factor(self) -> float:
        return NOMINAL_S / statistics.fmean(self.samples)
