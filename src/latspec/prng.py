"""Portable 64-bit pseudo-random generator (splitmix64).

Random point sets and test fleets must regenerate bit-identically from a
seed on any platform, so we fix the algorithm here instead of relying on
``random`` or NumPy generator defaults.  The update is the standard
splitmix64 finalizer (Steele, Lea, Flood; public domain reference code).

The state after k steps is seed + k * gamma mod 2^64, so ``next_u64_array``
computes a run of outputs at once in wrapping uint64 arithmetic; it returns
the same integers as that many ``next_u64`` calls and leaves the same state.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic stream of 64-bit integers from a 64-bit seed."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_u64_array(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as one uint64 array, in draw order."""
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self.state)
        self.state = (self.state + count * _GAMMA) & _MASK
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (unbiased).  A candidate is
        the fewest 64-bit words that cover n - 1, the first word highest, so
        n <= 2^64 takes one word per candidate."""
        if n <= 0:
            raise ValueError("n must be positive")
        words = max(1, -(-(n - 1).bit_length() // 64))
        limit = (1 << 64 * words) - ((1 << 64 * words) % n)
        while True:
            u = 0
            for _ in range(words):
                u = u << 64 | self.next_u64()
            if u < limit:
                return u % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)
