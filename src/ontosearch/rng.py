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

The k-th output after state s is a pure function of ``s + k * GAMMA``
modulo 2^64, so ``_stream`` computes any run of outputs at once in numpy
``uint64``, whose multiplies wrap as the masked scalar ones do.
``uniform_array`` and ``SplitMix64.randrange_array`` are built on it and
equal their scalar draws bit for bit.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Draws per block of ``randrange_array`` and ``uniform_array``: their
# temporaries, a few arrays of this length, stay small (and in cache)
# however many values are drawn.
_DRAW_BLOCK = 4096


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

    def randrange_array(self, bounds) -> np.ndarray:
        """``[self.randrange(n) for n in bounds]`` as a ``uint64`` array,
        leaving the generator where those calls would; every bound lies in
        [1, 2^64).

        The outputs are drawn at once and tested against each bound's
        rejection limit; from the first rejected draw on, that bound is
        drawn by ``randrange`` and the rest of the bounds as before.
        """
        bounds = np.asarray(bounds, dtype=np.uint64).ravel()
        if bounds.size and not bounds.all():
            raise ValueError("randrange() bound must be positive")
        out = np.empty(bounds.size, dtype=np.uint64)
        done = 0
        while done < bounds.size:
            rest = bounds[done:done + _DRAW_BLOCK]
            u = _stream(self._state, rest.size)
            # randrange's u < 2^64 - (2^64 mod n), in uint64 as
            # u <= (2^64 - 1) - ((2^64 - n) mod n)
            limit = _MASK64 - rest
            limit += np.uint64(1)
            limit %= rest
            np.subtract(np.uint64(_MASK64), limit, out=limit)
            accepted = u <= limit
            stop = rest.size if accepted.all() else int(accepted.argmin())
            np.remainder(u[:stop], rest[:stop], out=out[done:done + stop])
            self._state = (self._state + stop * _GAMMA) & _MASK64
            done += stop
            if stop < rest.size:  # u[stop] was rejected: draw its bound one value at a time
                out[done] = self.randrange(int(bounds[done]))
                done += 1
        return out

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates shuffle of a mutable sequence, descending
        index order; the swap indices are drawn ``_DRAW_BLOCK`` at a time."""
        for top in range(len(items) - 1, 0, -_DRAW_BLOCK):
            stop = max(top - _DRAW_BLOCK, 0)
            swaps = self.randrange_array(np.arange(top + 1, stop + 1, -1, dtype=np.uint64))
            for i, j in zip(range(top, stop, -1), swaps.tolist()):
                items[i], items[j] = items[j], items[i]


def _stream(state: int, count: int) -> np.ndarray:
    """The next ``count`` outputs of a SplitMix64 whose state is ``state``."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(state)
    return _mix(z, z, np.empty_like(z))


def _mix(states: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64's output of each of ``states`` into ``out`` (which may be
    ``states``), with ``scratch`` as long as both."""
    np.right_shift(states, np.uint64(30), out=scratch)
    np.bitwise_xor(states, scratch, out=out)
    out *= np.uint64(_MIX1)
    np.right_shift(out, np.uint64(27), out=scratch)
    out ^= scratch
    out *= np.uint64(_MIX2)
    np.right_shift(out, np.uint64(31), out=scratch)
    out ^= scratch
    return out


def uniform_array(seed: int, count: int, lo: float, hi: float) -> np.ndarray:
    """The first ``count`` draws of ``SplitMix64(seed).uniform(lo, hi)``.

    The float operations are those of ``uniform``, in the same order, so
    every element equals its scalar draw bit for bit.  The draws are made
    ``_DRAW_BLOCK`` at a time in the same few scratch arrays, which stay in
    cache, and written once into the result.
    """
    out = np.empty(count, dtype=np.float64)
    block = min(count, _DRAW_BLOCK)
    states = np.arange(1, block + 1, dtype=np.uint64)  # the states of the first block
    states *= np.uint64(_GAMMA)
    states += np.uint64(seed & _MASK64)
    z, scratch = np.empty_like(states), np.empty_like(states)
    step = np.uint64(block * _GAMMA & _MASK64)  # from each block's states to the next's
    for start in range(0, count, _DRAW_BLOCK):
        n = min(block, count - start)
        u = _mix(states[:n], z[:n], scratch[:n])
        u >>= np.uint64(11)
        draws = out[start:start + n]
        np.multiply(u, 2.0 ** -53, out=draws)
        draws *= hi - lo
        draws += lo
        states += step
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
