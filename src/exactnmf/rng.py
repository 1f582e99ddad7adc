"""Fixed 64-bit mixing generator for reproducible randomized suites.

This is splitmix64: state advances by the golden-gamma constant
0x9E3779B97F4A7C15 and the output is finalized with the 30/27/31
xor-shift-multiply mix (constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB).  The sequence for a given seed is identical on
every platform, so seeded test suites reproduce exactly.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic stream of 64-bit words from one integer seed."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n) as next_u64() mod n."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def fraction(self, denominator: int = 4096) -> Fraction:
        """Random rational k/denominator with 0 <= k < denominator."""
        return Fraction(self.below(denominator), denominator)
