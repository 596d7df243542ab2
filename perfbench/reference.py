"""A fixed slice of reference work that measures how fast the machine
runs at the moment, independently of contrail.

On a few shared cores the speed of a machine can drift by tens of
percent over spells of 20-60 s.  Timing this fixed work just before and
just after every operation lets the benchmark scale the operation's
time to one nominal speed (see README.md, "Steadiness").
"""

from __future__ import annotations

import math
import time

import numpy as np

# A slice's median time on the 2-core x86-64 VM the benchmark was tuned
# on (Python 3.11, numpy 2.4, one OpenBLAS thread).  Only the ratio of an
# operation's time to the slice's time moves a metric; this constant
# turns that ratio back into seconds of about the usual size.
NOMINAL_S = 0.015

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((128, 256))
_B = _RNG.standard_normal((256, 64))
_POINTS = [(float(x), float(y)) for x, y in _RNG.uniform(-50.0, 50.0, size=(400, 2))]


def _work() -> float:
    """Pure-Python tuple and float work, like scene featurisation and
    CSV parsing, and small matrix products, like the heatmap MLP."""
    acc = 0.0
    for _ in range(30):
        for x, y in _POINTS:
            acc += math.hypot(x, y) * 0.5 + (x if x > y else y)
        rows = sorted(_POINTS, key=lambda p: (p[0] * p[0] + p[1] * p[1], p[1]))
        acc += rows[0][0]
    for _ in range(70):
        acc += float(np.tanh(_A @ _B).sum())
    return acc


def reference_seconds(repeats: int = 5) -> float:
    """Median wall time of ``repeats`` slices of the reference work."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def scaled(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while a reference slice took ``ref_s``, as
    they would read at the nominal speed."""
    return seconds * NOMINAL_S / ref_s
