"""Portable 64-bit pseudo-random generator (splitmix64).

Random point sets and test fleets must regenerate bit-identically from a
seed on any platform, so we fix the algorithm here instead of relying on
``random`` or NumPy generator defaults.  The update is the standard
splitmix64 finalizer (Steele, Lea, Flood; public domain reference code).
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    """Deterministic stream of 64-bit integers from a 64-bit seed."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (unbiased)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)

    def choice(self, seq):
        return seq[self.below(len(seq))]
