"""Datalets: single-server storage engines + their message front-end.

========== =============================== ===========================
name        engine                          characteristics
========== =============================== ===========================
``ht``      :class:`HashTableEngine` (tHT)  fastest point ops, no scan
``mt``      :class:`BTreeEngine` (tMT)      ordered, scans, fast reads
``lsm``     :class:`LSMEngine` (tLSM)       fast writes, slower reads
``log``     :class:`LogEngine` (tLog)       persistent append log
``ssdb``    :class:`SSDBEngine` (tSSDB)     LevelDB-style persistent
``redis``   :class:`RedisEngine` (tRedis)   RESP-ported in-memory store
========== =============================== ===========================
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Mapping

from repro import _lazy_exports
from repro.datalet.engine import Engine

# Everything but the engine contract resolves on first use: ``bespokv
# serve`` loads one engine's module, and no engine needs the actor
# fabric (DataletActor) or the simulator (WriteAheadLog).
__getattr__, __dir__ = _lazy_exports(__name__, {
    "DataletActor": "repro.datalet.base",
    "WriteAheadLog": "repro.datalet.wal",
    "ReplayResult": "repro.datalet.wal",
    "HashTableEngine": "repro.datalet.hashtable",
    "BTreeEngine": "repro.datalet.btree",
    "LogEngine": "repro.datalet.log",
    "LSMEngine": "repro.datalet.lsm",
    "SSTable": "repro.datalet.lsm",
    "SSDBEngine": "repro.datalet.ports",
    "RedisEngine": "repro.datalet.ports",
})

__all__ = [
    "Engine",
    "DataletActor",
    "WriteAheadLog",
    "ReplayResult",
    "HashTableEngine",
    "BTreeEngine",
    "LogEngine",
    "LSMEngine",
    "SSTable",
    "SSDBEngine",
    "RedisEngine",
    "ENGINE_KINDS",
    "make_engine",
]


class _EngineKinds(Mapping):
    """Kind name -> engine class; a class's module loads on its first lookup."""

    _classes = {
        "ht": "HashTableEngine",
        "mt": "BTreeEngine",
        "lsm": "LSMEngine",
        "log": "LogEngine",
        "ssdb": "SSDBEngine",
        "redis": "RedisEngine",
    }

    def __getitem__(self, kind: str) -> type:
        return getattr(sys.modules[__name__], self._classes[kind])

    def __iter__(self) -> Iterator[str]:
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)


ENGINE_KINDS: Mapping[str, type] = _EngineKinds()


def make_engine(kind: str, **kwargs) -> Engine:
    """Instantiate a datalet engine by cost-model kind name."""
    try:
        cls = ENGINE_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown datalet kind {kind!r}; choose from {sorted(ENGINE_KINDS)}"
        ) from None
    return cls(**kwargs)
