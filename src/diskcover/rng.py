"""Deterministic 64-bit PRNG for reproducible instance generation.

Benchmark results must be reproducible bit-for-bit from a seed alone, in any
implementation language, so we fix the generator algorithm instead of relying
on a runtime's default RNG.  The scheme is the standard pairing of

  * splitmix64 to expand a single 64-bit seed into the generator state, and
  * xoshiro256** for the output stream,

both exactly as published by Blackman and Vigna (public-domain reference C
code).  Doubles are drawn as ``(next_u64() >> 11) * 2**-53``, giving a value
in [0, 1).  See the README for the byte-exact recipe.

``next_u64``, ``random``, ``uniform`` and ``randint`` follow that recipe one
draw at a time.  ``random_array`` gives the same doubles, bit for bit, in
one call: it walks the state in Python ints and scrambles the recorded
words in numpy ``uint64``, whose arithmetic wraps mod 2**64 as the recipe's
does, and converts exactly, since each value is below 2**53.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a splitmix64 state once; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, (z ^ (z >> 31)) & _MASK


class Xoshiro256StarStar:
    """xoshiro256** seeded from a 64-bit integer via four splitmix64 outputs."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        sm = seed & _MASK
        s = []
        for _ in range(4):
            sm, out = splitmix64(sm)
            s.append(out)
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK, 7) * 9) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def random(self) -> float:
        """Uniform double in [0, 1): top 53 bits of the next output."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def random_array(self, count: int) -> np.ndarray:
        """The next ``count`` values of ``random()``, as a float64 array.

        Leaves the state where ``count`` calls to ``random()`` would.
        """
        if count < 0:
            raise ValueError(f"random_array requires count >= 0, got {count}")
        s0, s1, s2, s3 = self._s
        # the step of next_u64; s1 is the word its output scrambles
        words = [0] * count
        for i in range(count):
            words[i] = s1
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self._s = [s0, s1, s2, s3]
        x = np.array(words, dtype=np.uint64) * np.uint64(5)
        x = ((x << np.uint64(7)) | (x >> np.uint64(57))) * np.uint64(9)
        return (x >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive), via rejection-free modulo.

        The tiny modulo bias is irrelevant for test-instance sizing and keeps
        the recipe trivial to reproduce.
        """
        if hi < lo:
            raise ValueError(f"randint requires lo <= hi, got {lo} > {hi}")
        span = hi - lo + 1
        return lo + self.next_u64() % span
