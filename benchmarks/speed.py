"""Machine-speed reference that the reported times are scaled by.

On a shared host the speed of a core drifts by a quarter or more over a few
minutes as other tenants load it: the same solve takes 1.4 s in one minute
and 1.9 s in the next.  That drift is wider than any regression bound, so raw
wall times cannot tell a slower program from a busier machine.

`kernel` is fixed work of the kind the solver does, interpreter-bound float
and dict operations plus small numpy arrays.  It is timed at every op
boundary, and each reported time is scaled by (NOMINAL_S / kernel time around
it) ** ELASTICITY: seconds at the machine's nominal speed.  The kernel calls
no program code, so a change to the program cannot move it; raw times are
kept next to the scaled ones.

The kernel reacts more strongly to the host's load than the program does:
regressing log(op time) on log(kernel time) within each scene gave slopes of
0.62 (fixtures), 0.71 (rooms) and 0.73 (check) over 630 ops on the host the
benchmark was defined on.  Scaling by the full ratio overcorrects (a quiet
host inflated the scaled times by 10-15%); ELASTICITY = 0.7 does not.
"""

from __future__ import annotations

import math
import time

import numpy as np

# About the kernel's time on the 2-core x86-64 host the benchmark was defined on
# (Python 3.11, numpy 2.4); it only sets the unit of the scaled times.
NOMINAL_S = 0.020
ELASTICITY = 0.7


def kernel() -> float:
    acc = 0.0
    table: dict = {}
    for i in range(30000):
        x = math.cos(i * 1e-3) * 1.5 + math.sin(i * 2e-3)
        table[i & 63] = table.get(i & 63, 0.0) + x
        acc += abs(x) ** 0.5
    v = np.zeros(3)
    for i in range(3000):
        v = v * 0.9 + np.array([i, 1.0, 2.0])
    return acc + float(v.sum())


def kernel_s() -> float:
    """Wall seconds of one run of `kernel`."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(kernel_seconds: float) -> float:
    """Multiplier that takes a time measured while the kernel took
    `kernel_seconds` to nominal speed."""
    return (NOMINAL_S / kernel_seconds) ** ELASTICITY


def scaled(seconds: float, kernel_seconds: float) -> float:
    return seconds * factor(kernel_seconds)
