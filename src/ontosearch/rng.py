"""Seedable deterministic random number generation.

Sampling decisions made during dataset generation and training must be
reproducible from a single integer seed, across runs and across languages,
so this module pins an exact algorithm instead of relying on a runtime's
unspecified default generator.

The generator is SplitMix64 (Steele, Lea & Flood; the reference
implementation is Vigna's ``splitmix64.c``):

    state += 0x9E3779B97F4A7C15                    (golden-ratio increment)
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

all in 64-bit wrapping arithmetic.  Bounded draws use rejection sampling on
the top of the 64-bit range, so ``randrange(n)`` is exactly uniform.
``uniform_array`` computes a stream of ``uniform`` draws at once in numpy.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """SplitMix64 stream seeded with a 64-bit integer (wrapped modulo 2^64)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Return the next output in [0, 2^64)."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Exactly uniform integer in [0, n), by rejection on the 64-bit top."""
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def choice(self, seq):
        """Uniform element of a non-empty sequence."""
        return seq[self.randrange(len(seq))]

    def random(self) -> float:
        """Float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, descending index order."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def uniform_array(seed: int, count: int, lo: float, hi: float) -> np.ndarray:
    """The first ``count`` draws of ``SplitMix64(seed).uniform(lo, hi)``.

    The k-th state is ``seed + k * GAMMA`` modulo 2^64, so the whole stream
    is computed in numpy ``uint64``, whose multiplies wrap as the masked
    scalar ones do.  The float operations are those of ``uniform``, in the
    same order, so every element equals its scalar draw bit for bit.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    out = z.astype(np.float64)
    out *= 2.0 ** -53
    out *= hi - lo
    out += lo
    return out


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string.

    offset basis 0xcbf29ce484222325, prime 0x100000001b3; used for feature
    hashing so bucket assignment is identical on every platform.
    """
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & _MASK64
    return h
