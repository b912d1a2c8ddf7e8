"""Bloom filter for SSTable membership tests.

Real LSM engines (LevelDB — the engine behind tSSDB — and successors)
attach a Bloom filter to every SSTable so point reads skip tables that
cannot contain the key, taming read amplification.  This is a textbook
double-hashing Bloom filter (Kirsch-Mitzenmacher): k index functions
derived from two base hashes.

Every bit index is a function of the key's 64-bit :func:`stable_hash`
alone, so a caller probing several filters hashes the key once and
passes the hash to :meth:`BloomFilter.might_contain_hash`, and
:meth:`BloomFilter.build` sets all bits from one vectorized pass over
the keys' hashes.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.hashing import stable_hash

__all__ = ["BloomFilter"]


class BloomFilter:
    """Fixed-size bit-array Bloom filter."""

    def __init__(self, expected_items: int, false_positive_rate: float = 0.01):
        if expected_items < 1:
            raise ValueError(f"expected_items must be >= 1, got {expected_items}")
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError(f"false_positive_rate must be in (0,1), got {false_positive_rate}")
        # optimal sizing: m = -n ln p / (ln 2)^2 ; k = m/n ln 2
        self.m = max(8, int(-expected_items * math.log(false_positive_rate) / (math.log(2) ** 2)))
        self.k = max(1, round(self.m / expected_items * math.log(2)))
        self._bits = bytearray((self.m + 7) // 8)
        self.items = 0

    def add(self, key: str) -> None:
        h = stable_hash(key)
        h1, h2 = h & 0xFFFFFFFF, (h >> 32) | 1  # odd stride covers the table
        for i in range(self.k):
            idx = (h1 + i * h2) % self.m
            self._bits[idx >> 3] |= 1 << (idx & 7)
        self.items += 1

    def might_contain(self, key: str) -> bool:
        """False means *definitely absent*; True means "probably"."""
        return self.might_contain_hash(stable_hash(key))

    def might_contain_hash(self, h: int) -> bool:
        """:meth:`might_contain` for a key whose ``stable_hash`` is ``h``."""
        h1, h2 = h & 0xFFFFFFFF, (h >> 32) | 1
        m, bits = self.m, self._bits
        for i in range(self.k):
            idx = (h1 + i * h2) % m
            if not bits[idx >> 3] & (1 << (idx & 7)):
                return False
        return True

    @classmethod
    def build(cls, keys: Iterable[str], false_positive_rate: float = 0.01) -> "BloomFilter":
        """A filter holding ``keys``: the same ``m``, ``k`` and bits as
        :meth:`add` on each key in turn, set in one numpy pass."""
        import numpy as np  # local: keeps numpy out of every CLI process's start-up

        keys = list(keys)
        bloom = cls(max(1, len(keys)), false_positive_rate)
        if keys:
            h = np.fromiter((stable_hash(k) for k in keys), dtype=np.uint64, count=len(keys))
            h1 = h & np.uint64(0xFFFFFFFF)
            h2 = (h >> np.uint64(32)) | np.uint64(1)
            # h1 + i*h2 < (k + 1) * 2**32: no uint64 overflow for any sane k
            idx = (h1[:, None] + np.arange(bloom.k, dtype=np.uint64) * h2[:, None]) \
                % np.uint64(bloom.m)
            flags = np.zeros(len(bloom._bits) * 8, dtype=bool)
            flags[idx.ravel()] = True
            bloom._bits = bytearray(np.packbits(flags, bitorder="little").tobytes())
            bloom.items = len(keys)
        return bloom

    def __len__(self) -> int:
        return self.items
