"""A fixed computation that measures how fast the machine runs right now.

The machine the benchmark runs on is shared: the same job can take 150 ms
or 260 ms depending on what its neighbours do, in phases of seconds.  So
every job is bracketed by runs of `reference()`, benchmark-owned code that
no change to the program can touch, and its wall time is scaled by
REF_S / (mean of the two reference times): the time the job would have taken
had the machine run at the speed that gives the reference REF_S seconds.
The reference mixes the work the jobs do: Python int and Fraction
arithmetic and small numpy calls.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

from oracle import leibniz_det

# Nominal duration of reference(): its median on the machine the baseline
# in BASELINE.json was taken on.  Scaled times are in seconds at that speed.
REF_S = 0.014

_INT = [[(i * 7 + j * 3) % 11 - 5 for j in range(7)] for i in range(7)]
_FRAC = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(6)] for i in range(6)]
_X = np.linspace(-9.0, 9.0, 6)
_M = np.linspace(0.5, 2.0, 6)


def reference() -> float:
    """Run the fixed computation; return its wall time in seconds."""
    t0 = perf_counter()
    leibniz_det(_INT)
    leibniz_det(_FRAC)
    for _ in range(100):
        e = np.exp(-np.abs(_X[:, None] - _X[None, :]))
        np.linalg.det(np.diag(_M) @ e @ np.diag(_M))
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two reference runs
    into a time at the nominal speed."""
    return REF_S / (0.5 * (before + after))
