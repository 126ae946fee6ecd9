"""Machine-speed calibration of the end-to-end times.

The benchmark shares its cores with other tenants. Their load switches the
whole machine between a fast and a slow speed, about 1.4x apart, in phases
of seconds to minutes; CPU time slows as much as wall time. A fixed kernel
of the same kind of work as ttalab's hot path (small matmuls, batch
statistics, softmax), independent of ttalab, is timed right before and right
after each measured interval, and the interval is divided by the mean of the
two. Over four minutes of repetitions of one workload, the median of these
ratios over 20-second windows varied 2.9% (quartile spread over median)
where the median wall time varied 20%.

Times are reported in seconds of the reference machine, an unloaded 2-core
Intel Xeon VM (OpenBLAS 0.3.31 on one thread, numpy 2.4, Python 3.11), on
which one kernel pass takes ``REFERENCE_S``.
"""

import time

import numpy as np

REFERENCE_S = 0.0045

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(2, 32))
_W1 = _rng.normal(size=(64, 32))
_W2 = _rng.normal(size=(64, 64))


def kernel_seconds():
    """Wall time of one pass of the calibration kernel."""
    t0 = time.perf_counter()
    for _ in range(150):
        h = _X @ _W1.T
        h = (h - h.mean(axis=0)) / np.sqrt(h.var(axis=0) + 1e-8)
        h = np.maximum(h, 0.0) @ _W2.T
        e = np.exp(h - h.max(axis=1, keepdims=True))
        e / e.sum(axis=1, keepdims=True)
    return time.perf_counter() - t0


def timed(fn, *args):
    """Run fn(*args); return (result, wall seconds, reference seconds)."""
    before = kernel_seconds()
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    speed = 2.0 * REFERENCE_S / (before + kernel_seconds())
    return result, wall, wall * speed
