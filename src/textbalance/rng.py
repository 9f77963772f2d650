"""Portable seeded random number generation.

Every randomized operation in this package (train/test shuffling, SMOTE
neighbor and gap draws, scatter projections) draws from SplitMix64, a
public-domain 64-bit generator with a one-word state and a fixed,
documented update rule.  Identical seeds therefore reproduce
identical byte-level output on any platform and in any language that
reimplements the same dozen lines.

Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
generators" (the java.util.SplittableRandom mixing constants).
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Fixed tags for deriving independent streams from one user-facing seed.
# Changing one consumer's draw count must not perturb the others.
STREAM_SPLIT = 0x53504C4954A011
STREAM_NEIGHBOR = 0x4E4549474842
STREAM_GAP = 0x474150C3
STREAM_PROJECTION = 0x50524F4A32


def mix64(value: int) -> int:
    """SplitMix64 finalizer: avalanche all 64 bits of ``value``."""
    z = (value + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class SplitMix64:
    """Seedable 64-bit generator with uniform float/int/shuffle helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        value = mix64(self._state)
        self._state = (self._state + _GOLDEN) & _MASK64
        return value

    def next_float(self) -> float:
        """Uniform double in [0, 1): the top 53 bits scaled by 2**-53."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via 128-bit multiply-shift."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return (self.next_u64() * bound) >> 64

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle (descending index convention)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_stream(seed: int, tag: int) -> SplitMix64:
    """Independent generator for (seed, tag); tags are module constants."""
    return SplitMix64(mix64((seed & _MASK64) ^ (tag & _MASK64)))
