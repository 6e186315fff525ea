"""Wall time scaled to a reference machine speed.

The benchmark runs on shared machines whose speed drifts: on the 2-core
machine where the bounds were set, identical work ran up to 1.7 times
slower for tens of seconds at a time, in CPU time as well as wall time.
A fixed calibration task runs between operations at least every
``EVERY`` seconds.  It uses no livsic: an interpreter loop plus small
LAPACK calls, the same mix as the package.  Each latency measured at time
t is multiplied by ``REFERENCE_S / c(t)``, where c(t) is the median time
of the ``WINDOW`` calibrations nearest to t.  A scaled second is thus the
time the work takes on a machine where the calibration takes exactly
``REFERENCE_S``.  The ratio of livsic's time to the calibration's stayed
within a few percent while raw times moved by 40 percent.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

EVERY = 0.1
WINDOW = 5
REFERENCE_S = 0.002


def calibration_task() -> float:
    acc = 0.0
    for j in range(3000):
        acc += (j * 1.0001) % 7.0
    a = np.eye(8) + 0.5
    for _ in range(50):
        acc += np.linalg.svd(a, compute_uv=False)[0] + np.linalg.solve(a, a[0])[0]
    return acc


class ScaledClock:
    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def calibrate(self) -> None:
        t = time.perf_counter()
        calibration_task()
        self.at.append(t)
        self.took.append(time.perf_counter() - t)

    def tick(self) -> None:
        """Calibrate if the last calibration is ``EVERY`` seconds old."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY:
            self.calibrate()

    def scale(self, at: float, seconds: float) -> float:
        """``seconds`` measured at time ``at``, in reference seconds."""
        j = bisect.bisect(self.at, at)
        lo = max(0, min(j - WINDOW // 2, len(self.took) - WINDOW))
        return seconds * REFERENCE_S / statistics.median(self.took[lo:lo + WINDOW])

    def summary(self) -> dict:
        return {"calibrations": len(self.took),
                "calibration_ms_median": 1e3 * statistics.median(self.took),
                "calibration_ms_min": 1e3 * min(self.took),
                "calibration_ms_max": 1e3 * max(self.took)}
