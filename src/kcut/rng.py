"""Counter-based RNG streams (splitmix64).

Each stream is a pure function of (seed, step), so the j-th output of a
stream can be computed in closed form.  That lets the border-finder run the
exact same per-trial streams either one trial at a time or vectorized over
a whole batch of trials with numpy.
"""
from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential view of the stream: output j is mix64(seed + (j+1)*GOLDEN)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.next_u64() % n


def stream_outputs(seeds: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Vectorized stream outputs: entry (i, j) is output steps[j] of stream seeds[i].

    Matches SplitMix64(seeds[i]) output-for-output.  ``steps`` are 0-based.
    """
    seeds = seeds.astype(np.uint64).reshape(-1, 1)
    incr = ((steps.astype(np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)).reshape(1, -1)
    z = seeds + incr
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z
