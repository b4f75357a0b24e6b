"""Deterministic 64-bit PRNG for reproducible problem instances.

SplitMix64 (Steele, Lea & Flood 2014) with the standard constants. The
point of hand-rolling this instead of using numpy's generators is that
the stream is trivial to reproduce in any language, so generated test
instances are portable across implementations.
"""

from __future__ import annotations

import math

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Seeded SplitMix64 stream with uniform and gaussian draws."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float, hi: float) -> float:
        # 53 random bits -> double in [0, 1)
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def gaussian(self) -> float:
        # Box-Muller; u1 shifted away from 0 so log() is safe
        u1 = (self.next_u64() >> 11) * 2.0**-53
        u2 = (self.next_u64() >> 11) * 2.0**-53
        u1 = max(u1, 2.0**-53)
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def gaussians(self, count: int) -> list[float]:
        return [self.gaussian() for _ in range(count)]
