"""Deterministic, platform-independent PRNG used by every randomized stage.

All protection decisions (function selection, opcode draws, checker edges,
guard placement) flow through one seedable stream so that identical inputs
and seeds reproduce identical bundles byte for byte.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1


class SplitMix64:
    """64-bit splitmix generator: tiny state, full 64-bit output, no platform
    dependence.  Not cryptographic; opcode unpredictability only needs to be
    good enough that tables differ across seeds."""

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n).  Rejection sampling keeps the
        distribution exact regardless of n."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        limit = MASK64 - (MASK64 + 1) % n
        while True:
            v = self.next_u64()
            if v <= limit:
                return v % n

    def choice(self, seq):
        if not seq:
            raise IndexError("choice from empty sequence")
        return seq[self.randrange(len(seq))]

    def sample(self, seq, k: int) -> list:
        """k distinct elements, uniform without replacement, order of draws."""
        pool = list(seq)
        if k > len(pool):
            raise ValueError("sample larger than population")
        out = []
        for _ in range(k):
            out.append(pool.pop(self.randrange(len(pool))))
        return out

    def spawn(self) -> "SplitMix64":
        """Child generator with an independent-looking stream; used to give
        each function its own deterministic lane."""
        return SplitMix64(self.next_u64())


def fresh_seed() -> int:
    """OS-entropy seed for when the caller does not pin one."""
    import secrets

    return secrets.randbits(64)
