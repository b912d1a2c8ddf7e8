"""Deep-learning training ingest workload (paper §VI-B).

Training reads the full dataset every epoch in a shuffled order; the
dataset is sharded into fixed-size records (image batches).  The first
epoch is a cold read (backing store); later epochs hit the distributed
cache.  The §VI-B experiment compares ingest rate with and without the
BESPOKV cache (paper: 40 vs 10 images/s, 4x).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

from repro.errors import ConfigError

__all__ = ["DLIngestWorkload"]


class DLIngestWorkload:
    """Epoch-shuffled reads over an image-shard dataset."""

    def __init__(
        self,
        images: int = 2000,
        batch: int = 4,
        record_bytes: int = 4096,
        seed: int = 0,
    ):
        if images < 1 or batch < 1:
            raise ConfigError("images and batch must be >= 1")
        self.images = images
        self.batch = batch
        self.record_bytes = record_bytes
        self.rng = random.Random(seed)
        self.records = [f"img{(i // batch):06d}" for i in range(0, images, batch)]

    def record_value(self) -> str:
        """Synthetic record payload of ``record_bytes`` bytes."""
        return "x" * self.record_bytes

    def load_ops(self) -> Iterator[Tuple[str, ...]]:
        """Populate the cache with every record."""
        for rec in self.records:
            yield ("put", rec, self.record_value())

    def epoch_ops(self) -> Iterator[Tuple[str, ...]]:
        """One training epoch: every record once, shuffled."""
        order: List[str] = list(self.records)
        self.rng.shuffle(order)
        for rec in order:
            yield ("get", rec)
