"""Consistent hashing with virtual nodes.

The client library's default data-partitioning scheme (paper §III:
"BESPOKV allows different developers to choose their own partitioning
techniques such as consistent hashing and range-based partitioning").
Virtual nodes smooth the load distribution; the hash is stable across
processes and Python versions (MD5, not ``hash()``).
"""

from __future__ import annotations

import bisect
import hashlib
import weakref
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigError

__all__ = ["HashRing", "stable_hash"]

#: most keys a lookup memo holds; it starts over when full.  Above the
#: largest keyspace perfbench serves (20 000 keys), so no benchmarked
#: workload ever clears it; the dict of a full memo is about 1 MB.
LOOKUP_MEMO_MAX = 1 << 15


class _Memo(dict):
    """key -> owner, shared by every ring with the same vnode placement
    (each client and controlet mirrors the same ring)."""

    __slots__ = ("__weakref__",)


_MEMOS: "weakref.WeakValueDictionary[Tuple, _Memo]" = weakref.WeakValueDictionary()


def stable_hash(key: str) -> int:
    """64-bit stable hash of ``key``."""
    return int.from_bytes(hashlib.md5(key.encode()).digest()[:8], "big")


class HashRing:
    """Maps keys to member names on a consistent-hash circle.

    :meth:`lookup` remembers the owner of up to :data:`LOOKUP_MEMO_MAX`
    keys in a memo shared with every ring of the same vnode placement;
    :meth:`add` and :meth:`remove` move the ring to its new placement's
    memo."""

    def __init__(self, members: Sequence[str] = (), vnodes: int = 64):
        if vnodes < 1:
            raise ConfigError(f"vnodes must be >= 1, got {vnodes}")
        self._vnodes = vnodes
        self._points: List[int] = []
        self._owners: Dict[int, str] = {}
        self._members: set[str] = set()
        self._memo = _Memo()
        for m in members:
            self.add(m)

    # -- membership ------------------------------------------------------
    def add(self, member: str) -> None:
        if member in self._members:
            raise ConfigError(f"ring member {member!r} already present")
        self._members.add(member)
        for i in range(self._vnodes):
            point = stable_hash(f"{member}#{i}")
            # extremely unlikely collision: skew one position
            while point in self._owners:
                point = (point + 1) % (1 << 64)
            self._owners[point] = member
            bisect.insort(self._points, point)
        self._placed()

    def remove(self, member: str) -> None:
        if member not in self._members:
            raise ConfigError(f"ring member {member!r} not present")
        self._members.discard(member)
        dead = [p for p, m in self._owners.items() if m == member]
        for p in dead:
            del self._owners[p]
        self._points = sorted(self._owners)
        self._placed()

    def _placed(self) -> None:
        """Adopt the lookup memo of the current vnode placement."""
        placement = (tuple(self._points), tuple(self._owners[p] for p in self._points))
        memo = _MEMOS.get(placement)
        if memo is None:
            memo = _MEMOS[placement] = _Memo()
        self._memo = memo

    @property
    def members(self) -> List[str]:
        return sorted(self._members)

    def diff(self, other: "HashRing") -> Dict[str, List[str]]:
        """Membership delta from ``self`` to ``other``.

        Returns ``{"added": [...], "removed": [...]}`` — the exact
        ``add``/``remove`` calls that turn this ring into ``other``.
        Because vnode placement is a pure function of the member name,
        applying the diff reproduces ``other``'s ownership exactly
        (remove + re-add is an identity, see ``tests/test_hashing.py``).
        """
        return {
            "added": sorted(other._members - self._members),
            "removed": sorted(self._members - other._members),
        }

    def __len__(self) -> int:
        return len(self._members)

    # -- lookup ----------------------------------------------------------
    def lookup(self, key: str) -> str:
        """Owner of ``key`` (first vnode clockwise of the key's point)."""
        owner = self._memo.get(key)
        if owner is not None:
            return owner
        if not self._points:
            raise ConfigError("lookup on empty hash ring")
        point = stable_hash(key)
        i = bisect.bisect_right(self._points, point)
        if i == len(self._points):
            i = 0
        owner = self._owners[self._points[i]]
        memo = self._memo
        if len(memo) >= LOOKUP_MEMO_MAX:
            memo.clear()
        memo[key] = owner
        return owner

    def lookup_n(self, key: str, n: int) -> List[str]:
        """First ``n`` distinct members clockwise of the key (preference
        list, Dynamo-style)."""
        if n > len(self._members):
            raise ConfigError(f"asked for {n} members, ring has {len(self._members)}")
        point = stable_hash(key)
        i = bisect.bisect_right(self._points, point)
        out: List[str] = []
        seen: set[str] = set()
        for step in range(len(self._points)):
            owner = self._owners[self._points[(i + step) % len(self._points)]]
            if owner not in seen:
                seen.add(owner)
                out.append(owner)
                if len(out) == n:
                    break
        return out
