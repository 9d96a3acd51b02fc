"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the speed of pure-Python code drifts by up to 2x within
minutes, far more than the changes the benchmark must resolve.  The
benchmark therefore times this kernel between segments of ops and rescales
their wall time to a nominal speed, the one at which the kernel takes
NOMINAL_S.  The kernel does the same kind of work as the package (an
anchored recursion over a tuple-keyed memo, integer orientation tests,
frozensets) but does not import it, so no change to the package moves it.

Changing this file or NOMINAL_S rescales every reported time; do it only in
a change that measures the baseline again.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.06
_POINTS = tuple((i, i * i) for i in range(12))  # a convex 12-gon
_EXPECTED = 16796  # C(10) triangulations


def _orient(a, b, c) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _count(poly: tuple[int, ...], used: frozenset, memo: dict) -> int:
    if len(poly) < 3:
        return 1
    key = (poly, used)
    cached = memo.get(key)
    if cached is not None:
        return cached
    a, b = _POINTS[poly[0]], _POINTS[poly[1]]
    total = 0
    for j in range(2, len(poly)):
        v = _POINTS[poly[j]]
        if _orient(a, b, v) == 0 or any(_orient(b, v, _POINTS[w]) == 0 for w in poly[2:j]):
            continue
        total += (_count(poly[1:j + 1], used | {poly[j]}, memo)
                  * _count(poly[j:] + (poly[0],), used, memo))
    memo[key] = total
    return total


def kernel_seconds() -> float:
    """Wall time of two fixed triangulation counts."""
    start = time.perf_counter()
    for _ in range(2):
        if _count(tuple(range(len(_POINTS))), frozenset(), {}) != _EXPECTED:
            raise RuntimeError("reference kernel miscounted")
    return time.perf_counter() - start


class SpeedScale:
    """Factor from wall time to reference-speed time, measured around each segment."""

    def __init__(self):
        self.last = kernel_seconds()
        self.factors: list[float] = []

    def close_segment(self) -> float:
        now = kernel_seconds()
        factor = NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return factor
