"""The host's speed right now, from a short fixed loop, for scaling timed metrics.

A shared host runs at different speeds for tens of seconds at a time, so two
runs of the same code can differ by a factor of two in wall time.  The
benchmark runs ``calibrate()`` next to what it times and scales each time by
``speed()``, the reference loop time over the measured one, so that a timed
metric reads as it would on the reference host at its usual speed.  The loop
does the kind of work pinchplace does: numpy calls on arrays of a few
elements, Python-level dispatch between them and small random draws.
Large-array numpy work is left out: it follows memory bandwidth, which moves
less with the host's speed than the program does.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Seconds calibrate() takes on the reference host (2-vCPU Xeon, Python 3.11,
# numpy 2.4) at its usual speed.  It sets only the scale of timed metrics.
REFERENCE_S = 0.010


def calibrate() -> float:
    """Wall seconds of one pass of the fixed loop."""
    t0 = perf_counter()
    acc = 0.0
    small = np.arange(1.0, 9.0)
    for _ in range(1600):
        small = np.maximum(small * 0.999, 0.1)
        acc += float(small.sum())
    gen = np.random.default_rng(7)
    for _ in range(800):
        acc += float(gen.uniform(-1.0, 1.0, 2).sum())
    elapsed = perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration loop computed a non-finite value")
    return elapsed


def speed(calibration_s: float) -> float:
    """Reference loop time over a measured one: below 1 on a slow host."""
    return REFERENCE_S / calibration_s
