"""tMT: ordered B+-tree datalet (stand-in for Masstree).

The paper's tMT wraps Masstree — a cache-craft trie-of-B+-trees — whose
property that matters for the evaluation is *ordered storage with fast
point reads and native range scans* (Fig 9's SCAN workload and the
range-query service of §IV-B).  This module implements a textbook
B+-tree: values only in leaves, leaves chained for scans, splits on
overflow.  Deletes are *lazy* (no rebalancing): keys are removed from
leaves but nodes are never merged, a common practical simplification
(e.g. LMDB-style) that keeps reads correct and preserves the paper's
performance asymmetries.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.datalet.engine import Engine
from repro.errors import KeyNotFound

__all__ = ["BTreeEngine"]


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: List[str] = []
        self.values: List[str] = []
        self.next: Optional["_Leaf"] = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        # children[i] holds keys < keys[i]; children[-1] holds the rest.
        self.keys: List[str] = []
        self.children: List[Union["_Internal", _Leaf]] = []


_Node = Union[_Internal, _Leaf]


class BTreeEngine(Engine):
    """B+-tree with configurable fanout."""

    kind = "mt"
    supports_scan = True

    def __init__(self, order: int = 32):
        if order < 4:
            raise ValueError(f"order must be >= 4, got {order}")
        self._order = order  # max keys per node
        self._root: _Node = _Leaf()
        self._len = 0
        self.height = 1
        self.splits = 0

    # -- navigation -----------------------------------------------------
    def _find_leaf(self, key: str) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            i = bisect.bisect_right(node.keys, key)
            node = node.children[i]
        return node

    # -- point ops --------------------------------------------------------
    def get(self, key: str) -> str:
        leaf = self._find_leaf(key)
        i = bisect.bisect_left(leaf.keys, key)
        if i < len(leaf.keys) and leaf.keys[i] == key:
            return leaf.values[i]
        raise KeyNotFound(key)

    def put(self, key: str, value: str) -> None:
        split = self._insert(self._root, key, value)
        if split is not None:
            sep, right = split
            new_root = _Internal()
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
            self.height += 1

    def _insert(self, node: _Node, key: str, value: str) -> Optional[Tuple[str, _Node]]:
        """Insert into the subtree; return (separator, new_right_sibling)
        if this node split, else None."""
        if isinstance(node, _Leaf):
            i = bisect.bisect_left(node.keys, key)
            if i < len(node.keys) and node.keys[i] == key:
                node.values[i] = value  # overwrite
                return None
            node.keys.insert(i, key)
            node.values.insert(i, value)
            self._len += 1
            if len(node.keys) <= self._order:
                return None
            return self._split_leaf(node)

        i = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[i], key, value)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(i, sep)
        node.children.insert(i + 1, right)
        if len(node.keys) <= self._order:
            return None
        return self._split_internal(node)

    def _split_leaf(self, leaf: _Leaf) -> Tuple[str, _Leaf]:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        leaf.next = right
        self.splits += 1
        return right.keys[0], right

    def _split_internal(self, node: _Internal) -> Tuple[str, _Internal]:
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self.splits += 1
        return sep, right

    def delete(self, key: str) -> None:
        leaf = self._find_leaf(key)
        i = bisect.bisect_left(leaf.keys, key)
        if i >= len(leaf.keys) or leaf.keys[i] != key:
            raise KeyNotFound(key)
        leaf.keys.pop(i)
        leaf.values.pop(i)
        self._len -= 1

    # -- iteration / scans -------------------------------------------------
    def _first_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node

    def __len__(self) -> int:
        return self._len

    def items(self) -> Iterator[Tuple[str, str]]:
        leaf: Optional[_Leaf] = self._first_leaf()
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next

    def scan(self, start: str, end: str, limit: Optional[int] = None) -> List[Tuple[str, str]]:
        """Pairs with ``start <= key < end`` in key order, via leaf chain."""
        out: List[Tuple[str, str]] = []
        leaf: Optional[_Leaf] = self._find_leaf(start)
        i = bisect.bisect_left(leaf.keys, start)
        while leaf is not None:
            while i < len(leaf.keys):
                key = leaf.keys[i]
                if key >= end:
                    return out
                out.append((key, leaf.values[i]))
                if limit is not None and len(out) >= limit:
                    return out
                i += 1
            leaf = leaf.next
            i = 0
        return out

    def check_invariants(self) -> None:
        """Validate structure (used by property tests):

        * keys sorted within every node;
        * leaf chain sorted globally and covering exactly ``len(self)``;
        * every internal child subtree within separator bounds.
        """
        def walk(node: _Node, lo: Optional[str], hi: Optional[str]) -> int:
            assert node.keys == sorted(node.keys), "unsorted node keys"
            for k in node.keys:
                assert lo is None or k >= lo, "key below lower bound"
                assert hi is None or k < hi, "key above upper bound"
            if isinstance(node, _Leaf):
                return len(node.keys)
            assert len(node.children) == len(node.keys) + 1, "child count mismatch"
            total = 0
            bounds = [lo] + list(node.keys) + [hi]
            for idx, child in enumerate(node.children):
                total += walk(child, bounds[idx], bounds[idx + 1])
            return total

        total = walk(self._root, None, None)
        assert total == self._len, f"size mismatch: counted {total}, stored {self._len}"
        chain = [k for k, _ in self.items()]
        assert chain == sorted(chain), "leaf chain out of order"
        assert len(chain) == self._len, "leaf chain size mismatch"

    def stats(self) -> Dict[str, float]:
        return {
            "live_keys": float(self._len),
            "height": float(self.height),
            "splits": float(self.splits),
            "order": float(self._order),
        }
