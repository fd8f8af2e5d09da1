"""A fixed reference kernel that measures how fast the machine is now.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes.  After every timed step a run samples this kernel
about once per second the step took, so the samples cover the same
stretches of time as the work.  It then scales its times by
``NOMINAL_S`` over the median kernel time of the run: the time the work
would have taken had the kernel taken ``NOMINAL_S``.  The raw seconds
are reported beside it.

The kernel mimics the program's hot loops: scalar numpy calls inside a
golden-section loop, as in the observer's inversion.  Scalar work of
this kind is what the observer and the plant loops do.  In a 200 s test,
the time of an estimation chunk against this kernel varied by 12%
between 20 s windows, against 36% raw; a plant-simulation chunk varied
by 17% against 53% raw.  Vectorised fitting tracks it less well: 20%
against 16% raw.  It is frozen and does not import ``coilsense``, so a
change to the program cannot change it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Kernel time that defines "reference speed", in seconds.
NOMINAL_S = 0.1

#: One kernel sample per this many seconds of measured step time.
SAMPLE_EVERY_S = 1.0

_P = (0.105, 0.596, 0.226, 1.302, -0.172, -0.547, 0.290, 1.004, 0.505, 4.751)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SOLVES = 500


def _peaked_map(F, P):
    p = _P
    l1, l2, l3 = p[0] * P + p[1], p[2] * P + p[3], p[4] * P + p[5]
    l4, l5 = p[6] * P + p[7], p[8] * P + p[9]
    F = np.asarray(F, dtype=float)
    with np.errstate(all="ignore"):
        return l1 * np.power(F, l2) * np.exp(l3 * np.power(F, l4)) + l5


def _kernel() -> float:
    acc = 0.0
    for k in range(_SOLVES):
        L, P = 5.0 + 0.001 * k, 0.3
        a, b = 0.0, 5.0
        c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
        fc = float((_peaked_map(c, P) - L) ** 2)
        fd = float((_peaked_map(d, P) - L) ** 2)
        while b - a > 1e-5:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = float((_peaked_map(c, P) - L) ** 2)
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = float((_peaked_map(d, P) - L) ** 2)
        acc += a
    return acc


def seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def sample(step_seconds: float) -> list:
    """Kernel times sampled after a step that took ``step_seconds``."""
    return [seconds() for _ in range(max(1, round(step_seconds / SAMPLE_EVERY_S)))]


def speed_factor(kernel_seconds) -> float:
    """``NOMINAL_S`` over the median of a run's kernel times: multiply a
    raw time of that run by it to get the time at reference speed."""
    return NOMINAL_S / statistics.median(kernel_seconds)
