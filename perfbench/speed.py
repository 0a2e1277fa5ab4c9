"""Machine-speed reference for the end-to-end times.

On a shared machine the speed of a core drifts by tens of percent from
one minute to the next, and every CPU-bound interval stretches with it.
The benchmark therefore times a fixed reference kernel next to each
interval it reports and scales the interval to the kernel's nominal
duration:

    reported = measured * REF_S / reference_measured

so the figures read as seconds on a machine where the kernel takes
``REF_S``.  The kernel mixes the interpreter-bound small-array loops
of the episode engine with elementwise array arithmetic like the
SSM's; it uses numpy only, never dacq, so no change to the package
moves it.  The raw wall times are reported next to the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

#: nominal duration of one ``SpeedProbe.measure`` call, in seconds
REF_S = 0.05


class SpeedProbe:
    """Times one run of the fixed reference kernel."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random((100, 20))
        self.arr = rng.random(1 << 16)
        self.out = np.empty_like(self.arr)

    def measure(self) -> float:
        X, arr, out = self.small, self.arr, self.out
        t0 = time.perf_counter()
        total = 0.0
        for i in range(2000):
            total += float(np.linalg.norm(X[i % 99 + 1:] - X[i % 99],
                                          axis=1).sum())
        for _ in range(128):
            np.multiply(arr, arr, out=out)
            np.exp(out, out=out)
            total += float(out.sum())
        elapsed = time.perf_counter() - t0
        if not np.isfinite(total):
            raise FloatingPointError("reference kernel overflowed")
        return elapsed


def scaled(measured: float, reference: float) -> float:
    """``measured`` seconds expressed at the nominal reference speed."""
    return measured * REF_S / reference
