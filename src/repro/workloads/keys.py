"""Key popularity distributions.

The paper's YCSB runs use "a balanced uniform KV popularity distribution
and a skewed Zipfian distribution (Zipfian constant = 0.99)".  The Zipf
sampler precomputes the CDF with numpy and samples by binary search —
O(1) memory per draw and fast enough to generate tens of millions of
ops inside benchmarks.
"""

from __future__ import annotations

import random
from typing import Optional

import numpy as np

from repro.errors import ConfigError

__all__ = ["KeySpace", "UniformKeys", "ZipfKeys"]


class KeySpace:
    """Fixed universe of keys, formatted like YCSB's ``user########``.

    ``spread_alpha=True`` prefixes each key with a letter spread evenly
    over a-z so that range partitioning (which splits the namespace
    alphabetically, §IV-B) distributes the keyspace across shards; with
    the default ``user`` prefix every key would land on one shard.
    """

    _ALPHABET = "abcdefghijklmnopqrstuvwxyz"

    def __init__(self, n: int, prefix: str = "user", width: int = 8,
                 spread_alpha: bool = False):
        if n < 1:
            raise ConfigError(f"keyspace size must be >= 1, got {n}")
        self.n = n
        self.prefix = prefix
        self.width = width
        self.spread_alpha = spread_alpha

    def key(self, i: int) -> str:
        if not 0 <= i < self.n:
            raise ConfigError(f"key index {i} out of range [0, {self.n})")
        if self.spread_alpha:
            letter = self._ALPHABET[(i * 26) // self.n]
            return f"{letter}{self.prefix}{i:0{self.width}d}"
        return f"{self.prefix}{i:0{self.width}d}"


class UniformKeys:
    """Every key equally likely."""

    def __init__(self, space: KeySpace, rng: Optional[random.Random] = None):
        self.space = space
        self.rng = rng or random.Random(0)

    def next_index(self) -> int:
        return self.rng.randrange(self.space.n)

    def next_key(self) -> str:
        return self.space.key(self.next_index())


class ZipfKeys:
    """Zipfian popularity: P(rank r) ∝ 1 / r^theta.

    Rank-to-key mapping is scrambled with a fixed permutation seed so
    hot keys spread across the hash ring instead of clustering — the
    same trick YCSB's scrambled-Zipfian uses.
    """

    def __init__(
        self,
        space: KeySpace,
        theta: float = 0.99,
        rng: Optional[random.Random] = None,
        scramble_seed: int = 12345,
    ):
        if not 0 < theta < 2:
            raise ConfigError(f"zipf theta out of range: {theta}")
        self.space = space
        self.theta = theta
        self.rng = rng or random.Random(0)
        weights = 1.0 / np.power(np.arange(1, space.n + 1, dtype=np.float64), theta)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        perm_rng = np.random.default_rng(scramble_seed)
        self._perm = perm_rng.permutation(space.n)

    def next_index(self) -> int:
        rank = int(np.searchsorted(self._cdf, self.rng.random(), side="right"))
        return int(self._perm[min(rank, self.space.n - 1)])

    def next_key(self) -> str:
        return self.space.key(self.next_index())

    def hot_fraction(self, top: int, samples: int = 10000) -> float:
        """Empirical share of draws landing in the ``top`` hottest ranks
        (used by tests to validate skew)."""
        hot_keys = set(self._perm[:top])
        hits = sum(1 for _ in range(samples) if self.next_index() in hot_keys)
        return hits / samples
