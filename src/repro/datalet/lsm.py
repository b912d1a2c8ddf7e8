"""tLSM: log-structured merge-tree datalet.

Implements the classic LSM write path the paper's Fig 6 relies on:
mutations land in a mutable **memtable**; when it fills, it is flushed
as an immutable sorted **SSTable**; when too many SSTables accumulate,
a size-tiered **compaction** merges them (newest version wins,
tombstones dropped once the merge covers every table).  Reads probe the
memtable then SSTables newest-first — the read amplification that makes
LSM slower than a B+-tree for read-heavy workloads.

Every SSTable carries a run number, unique within the engine and
increasing in cut order.  :meth:`LSMEngine.checkpoint` hands the
tables to the write-ahead log, which persists each run once and
afterwards checkpoints only a manifest naming them (see
:mod:`repro.datalet.wal`).
"""

from __future__ import annotations

import bisect
import heapq
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.datalet.engine import Engine
from repro.datalet.bloom import BloomFilter
from repro.errors import KeyNotFound
from repro.hashing import stable_hash

__all__ = ["LSMEngine", "SSTable"]

#: sentinel distinguishing "deleted" from "absent" inside tables.
_TOMBSTONE = None


class SSTable:
    """Immutable sorted run of ``(key, value-or-None)`` pairs, fronted
    by a Bloom filter so point reads skip tables that cannot contain
    the key (LevelDB-style read-amplification control).  ``run`` is
    the engine's number for this table."""

    __slots__ = ("run", "keys", "values", "bloom")

    def __init__(self, entries: List[Tuple[str, Optional[str]]], run: int):
        # entries must be sorted by key and duplicate-free
        self.run = run
        self.keys = [k for k, _ in entries]
        self.values = [v for _, v in entries]
        self.bloom = BloomFilter.build(self.keys) if self.keys else None

    def __len__(self) -> int:
        return len(self.keys)

    def lookup(self, key: str, h: int) -> Tuple[bool, Optional[str]]:
        """Return (present, value) for ``key``, whose ``stable_hash`` is
        ``h``.  value None with present=True is a tombstone."""
        if self.bloom is None or not self.bloom.might_contain_hash(h):
            return False, None
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return True, self.values[i]
        return False, None

    def range(self, start: str, end: str) -> Iterator[Tuple[str, Optional[str]]]:
        i = bisect.bisect_left(self.keys, start)
        while i < len(self.keys) and self.keys[i] < end:
            yield self.keys[i], self.values[i]
            i += 1


class LSMEngine(Engine):
    """Memtable + size-tiered SSTables."""

    kind = "lsm"
    supports_scan = True

    def __init__(self, memtable_limit: int = 4096, max_sstables: int = 6):
        if memtable_limit < 1:
            raise ValueError(f"memtable_limit must be >= 1, got {memtable_limit}")
        if max_sstables < 1:
            raise ValueError(f"max_sstables must be >= 1, got {max_sstables}")
        self._mem: Dict[str, Optional[str]] = {}
        self._tables: List[SSTable] = []  # newest first
        self._memtable_limit = memtable_limit
        self._max_sstables = max_sstables
        self._runs_cut = 0
        self.flushes = 0
        self.compactions = 0

    def _cut(self, entries: List[Tuple[str, Optional[str]]]) -> SSTable:
        self._runs_cut += 1
        return SSTable(entries, self._runs_cut)

    # -- write path ---------------------------------------------------
    def put(self, key: str, value: str) -> None:
        self._mem[key] = value
        self._maybe_flush()

    def delete(self, key: str) -> None:
        if not self.contains(key):
            raise KeyNotFound(key)
        self._mem[key] = _TOMBSTONE
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        if len(self._mem) >= self._memtable_limit:
            self.flush()
        if len(self._tables) > self._max_sstables:
            self.compact()

    def flush(self) -> None:
        """Freeze the memtable into a new SSTable."""
        if not self._mem:
            return
        self._tables.insert(0, self._cut(sorted(self._mem.items())))
        self._mem = {}
        self.flushes += 1

    def compact(self) -> None:
        """Merge every SSTable into one; tombstones are dropped because
        the merge covers the full history below the memtable."""
        merged: Dict[str, Optional[str]] = {}
        for table in reversed(self._tables):  # oldest first; newer overwrite
            for k, v in zip(table.keys, table.values):
                merged[k] = v
        live = sorted((k, v) for k, v in merged.items() if v is not _TOMBSTONE)
        self._tables = [self._cut(live)] if live else []
        self.compactions += 1

    # -- read path ------------------------------------------------------
    def get(self, key: str) -> str:
        if key in self._mem:
            value = self._mem[key]
            if value is _TOMBSTONE:
                raise KeyNotFound(key)
            return value
        if not self._tables:
            raise KeyNotFound(key)
        h = stable_hash(key)  # one hash serves every table's filter
        for table in self._tables:
            present, value = table.lookup(key, h)
            if present:
                if value is _TOMBSTONE:
                    raise KeyNotFound(key)
                return value
        raise KeyNotFound(key)

    def contains(self, key: str) -> bool:
        try:
            self.get(key)
            return True
        except KeyNotFound:
            return False

    def _merged_view(self) -> Dict[str, Optional[str]]:
        view: Dict[str, Optional[str]] = {}
        for table in reversed(self._tables):
            for k, v in zip(table.keys, table.values):
                view[k] = v
        view.update(self._mem)
        return view

    def __len__(self) -> int:
        return sum(1 for _, v in self._merged_view().items() if v is not _TOMBSTONE)

    def items(self) -> Iterator[Tuple[str, str]]:
        for k, v in self._merged_view().items():
            if v is not _TOMBSTONE:
                yield k, v

    def scan(self, start: str, end: str, limit: Optional[int] = None) -> List[Tuple[str, str]]:
        """K-way merge over memtable + SSTables, newest version wins.

        Each source is read lazily from ``start``; the merge stops after
        ``limit`` live pairs, so a short scan touches only its range."""
        mem = sorted((k, v) for k, v in self._mem.items() if start <= k < end)
        sources = [_ranked(mem, 0)] + [
            _ranked(table.range(start, end), rank)
            for rank, table in enumerate(self._tables, 1)
        ]
        out: List[Tuple[str, str]] = []
        last = None
        # equal keys arrive newest (lowest rank) first
        for key, _, value in heapq.merge(*sources):
            if key == last:
                continue
            last = key
            if value is _TOMBSTONE:
                continue
            if limit is not None and len(out) >= limit:
                break
            out.append((key, value))
        return out

    # -- durability -------------------------------------------------------
    @property
    def newest_run(self) -> int:
        return self._tables[0].run if self._tables else 0

    def checkpoint(self) -> Tuple[List[SSTable], Dict[str, Optional[str]]]:
        """The SSTables oldest first, and a copy of the memtable that
        keeps its tombstones: they shadow keys in the runs."""
        return self._tables[::-1], dict(self._mem)

    def stats(self) -> Dict[str, float]:
        return {
            "live_keys": float(len(self)),
            "memtable_keys": float(len(self._mem)),
            "sstables": float(len(self._tables)),
            "flushes": float(self.flushes),
            "compactions": float(self.compactions),
        }


def _ranked(pairs: Iterable[Tuple[str, Optional[str]]], rank: int
            ) -> Iterator[Tuple[str, int, Optional[str]]]:
    for key, value in pairs:
        yield key, rank, value
