"""Deterministic splitmix64 random source.

The recurrence is the published splitmix64:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

Uniform floats are derived as ``(output >> 11) * 2**-53``.  Bulk draws are
vectorized over the state counter and advance the state exactly as the same
number of scalar calls would, so scalar and bulk consumers interleave
reproducibly.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_INV53 = 2.0**-53


def mix64(z: int) -> int:
    """The splitmix64 output function applied to an arbitrary 64-bit value."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & MASK64
    return z ^ (z >> 31)


def mix_seed_index(seed: int, index: int) -> int:
    """Collision-resistant 64-bit stream id for (seed, index) pairs."""
    return mix64(mix64(seed) ^ ((index * GOLDEN) & MASK64))


class SplitMix64:
    """Stateful generator over the splitmix64 sequence."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * _INV53

    def next_below(self, n: int) -> int:
        """Uniform-ish integer in [0, n) by modulo (bias negligible for n << 2^64)."""
        return self.next_u64() % n

    def u64_array(self, n: int) -> np.ndarray:
        """n outputs as uint64, vectorized; advances state by n steps."""
        with np.errstate(over="ignore"):
            st = np.uint64(self.state) + np.uint64(GOLDEN) * np.arange(1, n + 1, dtype=np.uint64)
            z = (st ^ (st >> np.uint64(30))) * np.uint64(_MUL1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MUL2)
            z ^= z >> np.uint64(31)
        self.state = (self.state + n * GOLDEN) & MASK64
        return z

    def floats(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1) as float64."""
        return ((self.u64_array(n) >> np.uint64(11)).astype(np.float64)) * _INV53

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller on consecutive uniform pairs."""
        pairs = (n + 1) // 2
        u = self.floats(2 * pairs)
        # 1-u1 lies in (0, 1], keeping the log argument strictly positive
        r = np.log1p(-u[0::2])
        r *= -2.0
        np.sqrt(r, out=r)
        theta = 2.0 * math.pi * u[1::2]
        out = np.empty(2 * pairs, dtype=np.float64)
        np.multiply(r, np.cos(theta), out=out[0::2])
        np.multiply(r, np.sin(theta), out=out[1::2])
        return out[:n]

    def permutation(self, n: int) -> np.ndarray:
        """range(n) in a Fisher-Yates order drawn with next_below."""
        idx = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.next_below(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return np.asarray(idx, dtype=np.int64)
