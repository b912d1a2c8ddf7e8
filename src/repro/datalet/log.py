"""tLog: persistent append-only log with an in-memory hash index.

The paper's tLog "uses tHT as the in-memory index" over a log-structured
store on disk.  Every mutation appends a record; the index maps each
live key to its record offset.  Deletes append tombstones.  When the
garbage ratio (dead records / total records) exceeds a threshold, the
log compacts by rewriting only live records — the standard
log-structured-store reclamation loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.datalet.engine import Engine
from repro.errors import KeyNotFound

__all__ = ["LogEngine", "LogRecord"]


@dataclass(frozen=True)
class LogRecord:
    """One entry in the append log.  ``value is None`` marks a tombstone."""

    key: str
    value: Optional[str]

    def size_bytes(self) -> int:
        return 16 + len(self.key) + (len(self.value) if self.value is not None else 0)


class LogEngine(Engine):
    """Append-only log + hash index."""

    kind = "log"
    supports_scan = False

    def __init__(self, gc_threshold: float = 0.5, min_gc_records: int = 1024):
        if not 0.0 < gc_threshold <= 1.0:
            raise ValueError(f"gc_threshold must be in (0, 1], got {gc_threshold}")
        self._log: List[LogRecord] = []
        self._index: Dict[str, int] = {}
        self._gc_threshold = gc_threshold
        self._min_gc_records = min_gc_records
        self.compactions = 0
        self.bytes_appended = 0

    # -- write path ----------------------------------------------------
    def _append(self, record: LogRecord) -> int:
        offset = len(self._log)
        self._log.append(record)
        self.bytes_appended += record.size_bytes()
        return offset

    def put(self, key: str, value: str) -> None:
        self._index[key] = self._append(LogRecord(key, value))
        self._maybe_compact()

    def delete(self, key: str) -> None:
        if key not in self._index:
            raise KeyNotFound(key)
        self._append(LogRecord(key, None))
        del self._index[key]
        self._maybe_compact()

    # -- read path -------------------------------------------------------
    def get(self, key: str) -> str:
        try:
            offset = self._index[key]
        except KeyError:
            raise KeyNotFound(key) from None
        record = self._log[offset]
        assert record.key == key and record.value is not None, "index out of sync"
        return record.value

    def __len__(self) -> int:
        return len(self._index)

    def items(self) -> Iterator[Tuple[str, str]]:
        for key, offset in self._index.items():
            value = self._log[offset].value
            assert value is not None
            yield key, value

    # -- garbage collection ------------------------------------------------
    def garbage_ratio(self) -> float:
        if not self._log:
            return 0.0
        return 1.0 - len(self._index) / len(self._log)

    def _maybe_compact(self) -> None:
        if len(self._log) >= self._min_gc_records and self.garbage_ratio() > self._gc_threshold:
            self.compact()

    def compact(self) -> None:
        """Rewrite only live records; offsets are re-indexed."""
        new_log: List[LogRecord] = []
        new_index: Dict[str, int] = {}
        for key, offset in self._index.items():
            new_index[key] = len(new_log)
            new_log.append(self._log[offset])
        self._log = new_log
        self._index = new_index
        self.compactions += 1

    def stats(self) -> Dict[str, float]:
        return {
            "live_keys": float(len(self._index)),
            "log_records": float(len(self._log)),
            "garbage_ratio": self.garbage_ratio(),
            "compactions": float(self.compactions),
            "bytes_appended": float(self.bytes_appended),
        }
