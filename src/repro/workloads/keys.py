"""Key popularity distributions.

The paper's YCSB runs use "a balanced uniform KV popularity distribution
and a skewed Zipfian distribution (Zipfian constant = 0.99)".  The Zipf
sampler precomputes the CDF with numpy and samples by binary search —
O(1) memory per draw and fast enough to generate tens of millions of
ops inside benchmarks.

A benchmark runs one stream per client session, often a hundred or more
over the same keyspace, so what does not depend on a session's RNG is
built once and shared while any stream uses it: the key strings of a
keyspace shape, and the Zipf CDF and scramble of a ``(n, theta,
scramble_seed)``.  Each session keeps its own RNG, so every stream
draws exactly what it drew with private tables.
"""

from __future__ import annotations

import random
import weakref
from bisect import bisect_right
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError

__all__ = ["KeySpace", "UniformKeys", "ZipfKeys"]


class _Shared:
    """Tables shared by every stream of one shape; a weak-valued cache
    holds them only while some stream does."""

    __slots__ = ("names", "cdf", "perm", "__weakref__")


_KEY_TABLES: "weakref.WeakValueDictionary[Tuple, _Shared]" = weakref.WeakValueDictionary()
_ZIPF_TABLES: "weakref.WeakValueDictionary[Tuple, _Shared]" = weakref.WeakValueDictionary()


class KeySpace:
    """Fixed universe of keys, formatted like YCSB's ``user########``.

    ``spread_alpha=True`` prefixes each key with a letter spread evenly
    over a-z so that range partitioning (which splits the namespace
    alphabetically, §IV-B) distributes the keyspace across shards; with
    the default ``user`` prefix every key would land on one shard.

    Key strings are formatted on first use and kept in a table shared
    by every keyspace of the same shape.
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
        shape = (n, prefix, width, spread_alpha)
        table = _KEY_TABLES.get(shape)
        if table is None:
            table = _Shared()
            table.names = [None] * n
            _KEY_TABLES[shape] = table
        self._table = table
        #: index -> key string, ``None`` until first formatted
        self._names: List[Optional[str]] = table.names

    def key(self, i: int) -> str:
        if not 0 <= i < self.n:
            raise ConfigError(f"key index {i} out of range [0, {self.n})")
        return self._names[i] or self._format(i)

    def _format(self, i: int) -> str:
        if self.spread_alpha:
            letter = self._ALPHABET[(i * 26) // self.n]
            name = f"{letter}{self.prefix}{i:0{self.width}d}"
        else:
            name = f"{self.prefix}{i:0{self.width}d}"
        self._names[i] = name
        return name


class UniformKeys:
    """Every key equally likely."""

    def __init__(self, space: KeySpace, rng: Optional[random.Random] = None):
        self.space = space
        self.rng = rng or random.Random(0)

    def next_index(self) -> int:
        return self.rng.randrange(self.space.n)

    def next_key(self) -> str:
        space = self.space
        i = self.rng.randrange(space.n)
        return space._names[i] or space._format(i)


class ZipfKeys:
    """Zipfian popularity: P(rank r) ∝ 1 / r^theta.

    Rank-to-key mapping is scrambled with a fixed permutation seed so
    hot keys spread across the hash ring instead of clustering — the
    same trick YCSB's scrambled-Zipfian uses.  The CDF and permutation
    are plain lists shared per ``(n, theta, scramble_seed)``;
    ``bisect_right`` over the CDF's floats finds exactly the rank that
    ``np.searchsorted(side="right")`` finds over the array.
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
        shape = (space.n, theta, scramble_seed)
        table = _ZIPF_TABLES.get(shape)
        if table is None:
            table = _Shared()
            weights = 1.0 / np.power(np.arange(1, space.n + 1, dtype=np.float64), theta)
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            table.cdf = cdf.tolist()
            table.perm = np.random.default_rng(scramble_seed).permutation(space.n).tolist()
            _ZIPF_TABLES[shape] = table
        self._table = table
        self._cdf: List[float] = table.cdf
        self._perm: List[int] = table.perm

    def next_index(self) -> int:
        rank = bisect_right(self._cdf, self.rng.random())
        last = self.space.n - 1
        return self._perm[rank if rank < last else last]

    def next_key(self) -> str:
        i = self.next_index()
        space = self.space
        return space._names[i] or space._format(i)

    def hot_fraction(self, top: int, samples: int = 10000) -> float:
        """Empirical share of draws landing in the ``top`` hottest ranks
        (used by tests to validate skew)."""
        hot_keys = set(self._perm[:top])
        hits = sum(1 for _ in range(samples) if self.next_index() in hot_keys)
        return hits / samples
