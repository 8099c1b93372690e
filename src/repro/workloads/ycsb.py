"""YCSB-style key generators (used by the N-Store benchmark, Table II).

Implements the standard Zipfian generator of Gray et al. (as used by the
YCSB core workloads) plus a scrambled variant that spreads the hot keys
across the key space.
"""

from __future__ import annotations

import random

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv1a_64(value: int) -> int:
    """64-bit FNV-1a hash of an integer (YCSB's key scrambler)."""
    h = FNV_OFFSET
    for _ in range(8):
        h ^= value & 0xFF
        h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return h


class ZipfianGenerator:
    """Zipfian distribution over ``[0, n)`` with YCSB's default skew."""

    def __init__(self, n: int, rng: random.Random, theta: float = 0.99) -> None:
        if n <= 0:
            raise ValueError("need a positive key-space size")
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.rng = rng
        self.theta = theta
        self.zetan = self._zeta(n, theta)
        self.zeta2 = self._zeta(2, theta)
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - self.zeta2 / self.zetan)

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * ((self.eta * u - self.eta + 1) ** self.alpha))


class ScrambledZipfianGenerator:
    """Zipfian popularity ranks scattered uniformly over the key space."""

    def __init__(self, n: int, rng: random.Random, theta: float = 0.99) -> None:
        self.n = n
        self._zipf = ZipfianGenerator(n, rng, theta)

    def next(self) -> int:
        return fnv1a_64(self._zipf.next()) % self.n
