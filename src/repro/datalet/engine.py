"""The storage-engine contract: a plain synchronous data structure.

An :class:`Engine` is the data half of a datalet (paper §III-A): a
single-node store exposing ``Put``/``Get``/``Del`` (Table II), oblivious
to replication, topology or consistency, and unit- and
property-testable in isolation.  It lives apart from the message
front-end (:class:`~repro.datalet.base.DataletActor`) so that the real
TCP server can host an engine without loading the actor machinery.

Engines additionally support ``snapshot``/``restore`` which the failover
manager uses to rebuild a replica on a standby node, mirroring the
paper's "recovers the data from one of the datalets", and
``checkpoint``, which tells the write-ahead log what a durable baseline
must hold: an engine that already keeps immutable runs (the LSM's
SSTables) hands them over instead of a full copy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import KeyNotFound

__all__ = ["Engine"]


class Engine(ABC):
    """Synchronous single-node storage engine."""

    #: cost-model kind ("ht", "lsm", "log", "mt", "ssdb", "redis").
    kind: str = ""
    #: whether :meth:`scan` is supported (tMT/tLSM/tSSDB are; tHT is not).
    supports_scan: bool = False
    #: number of the newest immutable run the engine holds (0: none
    #: yet); None for engines that keep no runs.  A change tells the
    #: WAL a checkpoint is due (see :meth:`checkpoint`).
    newest_run: Optional[int] = None

    @abstractmethod
    def put(self, key: str, value: str) -> None:
        """Insert or overwrite ``key``."""

    @abstractmethod
    def get(self, key: str) -> str:
        """Return the value for ``key`` or raise :class:`KeyNotFound`."""

    @abstractmethod
    def delete(self, key: str) -> None:
        """Remove ``key``; raise :class:`KeyNotFound` if absent."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of live keys."""

    @abstractmethod
    def items(self) -> Iterator[Tuple[str, str]]:
        """Iterate live ``(key, value)`` pairs in unspecified order."""

    def contains(self, key: str) -> bool:
        try:
            self.get(key)
            return True
        except KeyNotFound:
            return False

    def scan(self, start: str, end: str, limit: Optional[int] = None) -> List[Tuple[str, str]]:
        """Return pairs with ``start <= key < end`` in key order.

        Only ordered engines implement this; the default raises to match
        a hash-table backend rejecting range queries.
        """
        raise NotImplementedError(f"{self.kind} engine does not support range scans")

    # -- recovery support -------------------------------------------------
    def snapshot(self) -> Dict[str, str]:
        """Full copy of live data (sent to a standby during failover)."""
        return dict(self.items())

    def checkpoint(self) -> Tuple[list, Dict[str, Optional[str]]]:
        """``(runs, tail)``: the state a durable checkpoint must hold.

        ``runs`` are the engine's immutable runs, oldest first, each
        with a ``run`` number and sorted ``keys``/``values`` lists (a
        None value is a tombstone); ``tail`` is everything newer, where
        a None value deletes.  The default is no runs and a full copy.
        """
        return [], self.snapshot()

    def restore(self, data: Dict[str, str], reset: bool = False) -> None:
        """Bulk-load a snapshot into an empty or existing engine.

        ``reset=True`` clears existing state first, making the engine
        *exactly* the snapshot — required when a rejoining node with
        recovered-but-stale state adopts a peer's authoritative copy
        (a plain bulk-load would resurrect its stale keys).
        """
        if reset:
            self.clear()
        for k, v in data.items():
            self.put(k, v)

    def clear(self) -> None:
        """Remove every live key (default: delete one by one)."""
        for k in sorted(k for k, _ in self.items()):
            self.delete(k)

    def stats(self) -> Dict[str, float]:
        """Engine-specific internals (levels, garbage ratio, ...)."""
        return {"live_keys": float(len(self))}
