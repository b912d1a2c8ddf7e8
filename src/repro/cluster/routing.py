"""Ring routing state, mirrored from the coordinator's ``ring_info()``.

The client library, every controlet and each ordering authority hold
one :class:`RingRouting`; nothing else turns the routing block into
key→shard rings.  ``install`` patches the current ring in place with
the membership diff (vnode placement is a pure function of the member
name, so ``HashRing.add``/``remove`` reproduce a rebuilt ring exactly).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

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

    def install(self, block: Dict[str, Any]) -> bool:
        """Adopt a ``ring_info()`` block (a block without members leaves
        the ring as is); True when the ring's membership changed."""
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
        desc = block.get("reshard")
        if desc is None:
            self.window = self.old_ring = None
        else:
            if self.window is None or self.window.get("gen") != desc.get("gen"):
                self.old_ring = HashRing([str(s) for s in desc["old"]])
            self.window = dict(desc)
        self.gen = int(block.get("gen", 0))
        return changed

    def old_owner(self, key: str) -> Optional[str]:
        """The old ring's owner of ``key`` when the open window moves it
        to another shard; None otherwise."""
        if self.old_ring is None:
            return None
        old = self.old_ring.lookup(key)
        return None if old == self.ring.lookup(key) else old
