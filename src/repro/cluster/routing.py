"""Key→shard routing, mirrored from the coordinator's replies.

The client library, every controlet, each ordering authority and the
harness's bulk loader hold one :class:`RingRouting`; nothing else turns
a routing block into key→shard lookups.  A ``ring_info()`` block drives
the hash ring: ``install`` patches it in place with the membership diff
(vnode placement is a pure function of the member name, so
``HashRing.add``/``remove`` reproduce a rebuilt ring exactly).  The
partitioner named in the same reply picks what ``lookup`` and
``covering`` consult: that ring, or the alphabetical ranges of a
range-partitioned deployment (§IV-B), which never reshards.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.hashing.range_part import RangePartitioner
from repro.hashing.ring import HashRing

__all__ = ["RingRouting"]


class RingRouting:
    """Ring generation + current ring + open reshard window."""

    def __init__(self) -> None:
        #: ring generation (0 until the first reshard window opens).
        self.gen = 0
        self.ring: Optional[HashRing] = None
        #: open window descriptor (``{"gen", "old", "new", ...}``) while
        #: writes dual-route; ``None`` when the topology is settled.
        self.window: Optional[Dict[str, Any]] = None
        self.old_ring: Optional[HashRing] = None
        #: the key ranges of a range-partitioned deployment; ``None``
        #: under hash partitioning.
        self.ranges: Optional[RangePartitioner] = None

    def install(self, block: Dict[str, Any], partitioner: Optional[str] = None) -> bool:
        """Adopt a ``ring_info()`` block (a block without members leaves
        the ring as is) and the ``partitioner`` its reply names (``None``
        keeps the current one); True when the ring's membership changed."""
        want = {str(s) for s in block.get("ids", ())}
        changed = False
        if want:
            if self.ring is None:
                self.ring, changed = HashRing(sorted(want)), True
            else:
                have = set(self.ring.members)
                changed = want != have
                for sid in sorted(have - want):
                    self.ring.remove(sid)
                for sid in sorted(want - have):
                    self.ring.add(sid)
        if partitioner == "range":
            if changed or self.ranges is None:
                self.ranges = RangePartitioner.uniform_alpha(self.ring.members)
        elif partitioner == "hash":
            self.ranges = None
        desc = block.get("reshard")
        if desc is None:
            self.window = self.old_ring = None
        else:
            if self.window is None or self.window.get("gen") != desc.get("gen"):
                self.old_ring = HashRing([str(s) for s in desc["old"]])
            self.window = dict(desc)
        self.gen = int(block.get("gen", 0))
        return changed

    def lookup(self, key: str) -> str:
        """The shard that owns ``key``."""
        if self.ranges is not None:
            return self.ranges.lookup(key)
        return self.ring.lookup(key)

    def covering(self, start: str, end: str) -> Dict[str, Tuple[str, str]]:
        """Shards that may hold keys in ``[start, end)``, each with its
        clipped sub-range: the intersecting ranges, or under hashing
        every member of the current (and an open window's old) ring."""
        if self.ranges is not None:
            return self.ranges.covering(start, end)
        members = set(self.ring.members)
        if self.old_ring is not None:
            members.update(self.old_ring.members)
        return {sid: (start, end) for sid in sorted(members)}

    def old_owner(self, key: str) -> Optional[str]:
        """The old ring's owner of ``key`` when the open window moves it
        to another shard; None otherwise."""
        if self.old_ring is None:
            return None
        old = self.old_ring.lookup(key)
        return None if old == self.ring.lookup(key) else old
