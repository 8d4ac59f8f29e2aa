"""Machine-speed calibration, so that timings from a shared machine compare.

On a machine whose cores are shared with other tenants, the speed of this
process drifts by up to 2x over minutes and every call slows with it; CPU time
drifts with wall time, so it is no remedy.  A fixed kernel, timed between
calls, measures the speed of the moment.  Each interval between two kernel
timings is rescaled to a machine on which the kernel takes ``REFERENCE_S``:
``wall * REFERENCE_S / sqrt(kernel_before * kernel_after)``.  The kernel has
the instruction mix of the package's Python-level numerics: scalar math and
row operations on a small complex array.  It lives here, outside the package,
so no change to the package changes the yardstick.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Kernel time on an uncontended core of the 2-vCPU machine the baseline was
# recorded on; scaled timings equal wall timings on such a core.
REFERENCE_S = 1.2e-3
_REPEATS = 3
_MATRIX = np.array([[2.0, 1 + 1j, 0.0, 0.5],
                    [1 - 1j, 1.0, 0.3j, 0.0],
                    [0.0, -0.3j, 0.5, 0.1],
                    [0.5, 0.0, 0.1, -1.0]], dtype=np.complex128)


def _kernel() -> float:
    start = time.perf_counter()
    a = _MATRIX.copy()
    for _ in range(150):
        apq = a[0, 1]
        beta = abs(apq)
        theta = 0.5 * math.atan2(2.0 * beta, a[0, 0].real - a[1, 1].real)
        row = math.cos(theta) * a[0, :] + math.sin(theta) * (apq / beta) * a[1, :]
        a[2, :] = 0.5 * (row + a[2, :])
        np.linalg.norm(a)
    return time.perf_counter() - start


def kernel_seconds() -> float:
    """Median time of the kernel over a few repeats."""
    return statistics.median(_kernel() for _ in range(_REPEATS))


class Scale:
    """Factors that rescale successive intervals to the reference machine."""

    def __init__(self):
        self.kernel_s = [kernel_seconds()]

    def factor(self) -> float:
        """Factor for the interval since the previous call (or construction)."""
        self.kernel_s.append(kernel_seconds())
        return REFERENCE_S / math.sqrt(self.kernel_s[-2] * self.kernel_s[-1])
