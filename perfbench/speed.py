"""Machine-speed calibration for shared, noisy machines.

On a 2-vCPU Xeon VM the wall time of the same job drifts by 20-45 % over
tens of seconds, and CPU time drifts alike: the core gets slower, the process
is not waiting.  A fixed kernel of the same kind of work as the workloads (an
interpreter loop over small numpy operations) is therefore timed right before
and right after every ``execute`` call and every set-up probe (between jobs
in a traced run).  Each timing is scaled by the mean of the two to a machine
on which the kernel takes ``REFERENCE_S``.  On that VM this cut the spread of
7-second medians of one job's time from about 8 % to about 2 %.  The kernel
does not touch specprox, so a change to the program moves the scaled figures
exactly as it moves the raw ones.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# About the kernel's time on that 2-vCPU Xeon VM.
REFERENCE_S = 0.040

_A = np.sin(np.arange(256, dtype=float)).reshape(16, 16)
_V = np.cos(np.arange(8, dtype=float))

# Each calibration runs the kernel for at least this share of the time it brackets.
SHARE = 0.02


def kernel_seconds() -> float:
    """Wall time of one pass of the calibration kernel."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(4000):
        c = _A[:, i % 16] @ _A[:, (i + 3) % 16]
        w = np.clip(_V / (0.1 + np.abs(_V)), -1.0, 1.0)
        acc += math.sqrt(abs(float(c))) + float(w[i % 8])
    return perf_counter() - t0


def kernel_passes(at_least: float) -> list[float]:
    """Kernel pass times: one pass, then more until ``at_least`` seconds are spent."""
    passes = [kernel_seconds()]
    while sum(passes) < at_least:
        passes.append(kernel_seconds())
    return passes


def to_reference(seconds: float, kernel: float) -> float:
    """``seconds`` measured while the kernel took ``kernel`` seconds, in reference time."""
    return seconds * REFERENCE_S / kernel
