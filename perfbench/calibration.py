"""Machine-speed calibration for wall-clock figures.

On a shared machine the same solve can take nearly twice as long for tens of
seconds at a time (a busy neighbour, a lower clock), which would swamp any
change in the solver.  So a fixed reference loop that never calls kcut runs
between solves, and each solve's wall time is rescaled by
NOMINAL_S / (mean of the reference times measured just before and just
after it).  The reported times are the times the solve would take on a
machine where the reference loop takes NOMINAL_S.  A change to kcut cannot
move the reference loop, so it moves the rescaled times in full.
"""
from __future__ import annotations

import random
import time

# Typical time of reference_work on the 2-vCPU Intel Xeon VM with Python 3.11
# the benchmark was built on.
NOMINAL_S = 0.012


def reference_work() -> int:
    """Fixed pure-Python work shaped like the solver's: tuple keys in a dict,
    a sort and a union-find pass.  Pure Python because the solver's time is
    mostly interpreter time; a numpy kernel in the loop slowed down
    differently from the solves under load and tracked them worse."""
    rng = random.Random(12345)
    n = 200
    merged: dict = {}
    for _ in range(5000):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0) + 1
    items = sorted(merged.items())
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v), _w in items:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in range(n)})


def _reference_time() -> float:
    """Time of reference_work at the machine's current speed.  The first call
    after a solve could take up to three times as long (much of it was an
    OpenBLAS worker still spinning, see run.py), so one untimed call warms
    up first, and the faster of two timed calls is kept."""
    reference_work()
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


class Calibration:
    """Reference timings taken between measured intervals: one when the
    clock is made and one at each ``mark``.  An interval is rescaled by the
    mean of the two timings that bound it; wider windows tracked the
    machine's swings worse."""

    def __init__(self):
        self.samples = [_reference_time()]

    def mark(self) -> None:
        """Call when a measured interval has just ended."""
        self.samples.append(_reference_time())

    def factors(self) -> list:
        """NOMINAL_S / machine speed, one factor per marked interval."""
        s = self.samples
        return [2 * NOMINAL_S / (s[i] + s[i + 1]) for i in range(len(s) - 1)]
