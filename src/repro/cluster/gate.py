"""Reshard-window gate for a shard's ordering authority.

Under AA topologies a shard's write order is decided outside its
controlets — by the DLM (AA+SC) or the shared-log sequencer (AA+EC) —
so that authority is *armed before* any controlet or client learns a
reshard window (``reshard_begin``) and disarmed once the cutover
committed (``reshard_end``).  While armed it keeps a key migration
from losing or clobbering a write.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.hashing.ring import HashRing
from repro.net.actor import Actor
from repro.net.message import Message

__all__ = ["ReshardGate"]


class ReshardGate:
    """Window state + ``reshard_begin``/``reshard_end`` handlers, owned
    by (and registered on) one ordering-authority actor."""

    def __init__(self, owner: Actor):
        self._owner = owner
        #: generation of the open window (0: topology settled).
        self.gen = 0
        self._old: Optional[HashRing] = None
        self._new: Optional[HashRing] = None
        #: moved keys a client wrote while the window is open.
        self._dirty: Set[str] = set()
        owner.register("reshard_begin", self._on_reshard_begin)
        owner.register("reshard_end", self._on_reshard_end)

    def _on_reshard_begin(self, msg: Message) -> None:
        gen = int(msg.payload["gen"])
        if gen != self.gen:
            self.gen = gen
            self._old = HashRing(list(msg.payload["old"]))
            self._new = HashRing(list(msg.payload["new"]))
            self._dirty = set()
        self._owner.respond(msg, "ok", {"gen": gen})

    def _on_reshard_end(self, msg: Message) -> None:
        if self.gen and self.gen == int(msg.payload.get("gen", -1)):
            self.gen = 0
            self._dirty = set()

    def moved(self, key: str) -> bool:
        """True when the open window re-assigns ``key`` to a new owner."""
        return bool(self.gen) and self._old.lookup(key) != self._new.lookup(key)

    def stale(self, key: str, gen: Optional[int]) -> bool:
        """A client write for a moved key stamped with another ring
        generation would land only on the old owner and be lost at the
        cutover: the authority answers ``wrong_shard``."""
        return self.moved(key) and gen != self.gen

    def mark(self, key: str) -> None:
        """An in-generation client write landed: if ``key`` moves it is
        dirty for the rest of the window."""
        if self.moved(key):
            self._dirty.add(key)

    def clean(self, key: str) -> bool:
        """May a migrated copy of ``key`` still land?  Not once a client
        wrote it (the copy is older by construction): ``skipped``."""
        return key not in self._dirty
