"""tHT: in-memory hash-table datalet (the paper's fastest template).

Point operations only — hash tables have no key order, so ``scan``
raises, which is exactly why the range-query service (§IV-B) requires
the tMT datalet instead.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.datalet.engine import Engine
from repro.errors import KeyNotFound

__all__ = ["HashTableEngine"]


class HashTableEngine(Engine):
    """Plain dict-backed store."""

    kind = "ht"
    supports_scan = False

    def __init__(self) -> None:
        self._data: Dict[str, str] = {}

    def put(self, key: str, value: str) -> None:
        self._data[key] = value

    def get(self, key: str) -> str:
        try:
            return self._data[key]
        except KeyError:
            raise KeyNotFound(key) from None

    def delete(self, key: str) -> None:
        if key not in self._data:
            raise KeyNotFound(key)
        del self._data[key]

    def __len__(self) -> int:
        return len(self._data)

    def items(self) -> Iterator[Tuple[str, str]]:
        return iter(self._data.items())
