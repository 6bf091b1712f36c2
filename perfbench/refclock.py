"""Paired reference work: scales measured times to a nominal host speed.

The benchmark host is a shared VM whose speed drifts by up to 2x over
seconds to hours (co-tenants on the same cores).  Every untraced run
therefore times a fixed reference next to the program and reports its
times at the host speed at which the reference takes its nominal time.
The reference belongs to the benchmark and never touches nchydro, so a
change to the program cannot change it.

* theta_scan (in process): `kernel()` runs before the first call and after
  every block of calls; each block's call times are multiplied by NOMINAL_S
  over the mean of the kernel samples just before and just after it.
* Fresh processes (the CLI requests, verify runs and every set-up): a
  reference process (`python3 refclock.py`: start-up, numpy import,
  PROCESS_CALLS kernel calls) runs between them; the run's times are
  multiplied by PROCESS_NOMINAL_S over the median reference wall time.

Throughput is computed from the scaled times; runs print the unscaled
values too.  On the 2-vCPU VM the benchmark was defined on, over 8
back-to-back 35 s segments of the scan loop, the spread (IQR/median) of
the mean call time fell from 0.16 raw to 0.03 scaled.  Keep the kernel
and the nominal times fixed: changing any of them moves every reported
time.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Typical kernel time on the 2-vCPU VM the benchmark was defined on.
NOMINAL_S = 2.0e-3
# Kernel calls of a reference process, and its typical wall time there.
PROCESS_CALLS = 10
PROCESS_NOMINAL_S = 0.2

_X = np.linspace(0.01, 50.0, 320)
_C = np.linspace(1.0, 2.0, 12)


def kernel() -> float:
    """Interpreter loop plus small-array numpy work, like a level_shift call."""
    acc, table = 0.0, {}
    for i in range(2500):
        acc += (i * 0.5) / (i + 1.0)
        table[i & 63] = acc
    for _ in range(40):
        y = np.polyval(_C, _X)
        acc += float(np.dot(np.exp(-_X) * y, y)) + float(np.log(_X).sum())
    return acc


class RefClock:
    """In-process kernel samples, for scaling blocks of timed calls."""

    def __init__(self):
        self.times = []

    def sample(self):
        start = time.perf_counter()
        value = kernel()
        self.times.append(time.perf_counter() - start)
        if not math.isfinite(value):
            raise RuntimeError("reference kernel returned a non-finite value")

    def factor(self) -> float:
        """Sample again; NOMINAL_S over the mean of this and the previous sample.

        Multiply the time of what ran between the two samples by it.
        """
        self.sample()
        return NOMINAL_S / (0.5 * (self.times[-2] + self.times[-1]))

    def properties(self) -> dict:
        median = statistics.median(self.times)
        return {"ref_kernel_median_s": median, "ref_samples": len(self.times),
                "ref_scale": NOMINAL_S / median}


if __name__ == "__main__":
    for _ in range(PROCESS_CALLS):
        if not math.isfinite(kernel()):
            raise SystemExit("reference kernel returned a non-finite value")
