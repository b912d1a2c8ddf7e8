"""The reshard dirty gate: ring routing plus the window's dirty marks.

A migrated copy must never clobber a client write its key took during
the window.  Each controlet and each shard's ordering authority (the
DLM for AA+SC, the shared-log sequencer for AA+EC) holds one
:class:`ReshardGate` and asks it the same questions: ``mark`` a client
write, ``clean`` for a migrated copy, ``stale`` for a write routed by
another ring generation.  Controlets arm theirs through the
epoch-fenced ring install; an authority passes itself as ``owner`` and
the gate serves ``reshard_begin``/``reshard_end``, arming it before any
controlet or client learns the window.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.cluster.routing import RingRouting
from repro.net.actor import Actor
from repro.net.message import Message

__all__ = ["ReshardGate"]


class ReshardGate(RingRouting):
    """:class:`RingRouting` plus the dirty marks of its window."""

    def __init__(self, owner: Optional[Actor] = None):
        super().__init__()
        #: key -> ring generation of the window a client write marked
        #: it in.
        self.marks: Dict[str, int] = {}
        self._owner = owner
        if owner is not None:
            owner.register("reshard_begin", self._on_reshard_begin)
            owner.register("reshard_end", self._on_reshard_end)

    def install(self, block: Dict[str, Any]) -> bool:
        """Adopt a routing block, keeping only the marks of the open
        window (or of a newer one not installed here yet): installing a
        window drops the marks of other generations, committing drops
        them all."""
        changed = super().install(block)
        if self.marks:
            floor = self.gen if self.window is not None else self.gen + 1
            self.marks = {k: g for k, g in self.marks.items() if g >= floor}
        return changed

    def _on_reshard_begin(self, msg: Message) -> None:
        gen = int(msg.payload["gen"])
        if gen > self.gen:
            self.install({"gen": gen, "ids": msg.payload["new"],
                          "reshard": msg.payload})
        self._owner.respond(msg, "ok", {"gen": gen})

    def _on_reshard_end(self, msg: Message) -> None:
        if self.window is not None and self.gen == int(msg.payload.get("gen", -1)):
            self.install({"gen": self.gen})

    def stale(self, key: str, gen: Optional[int]) -> bool:
        """A client write for a key the open window moves, stamped with
        another ring generation, would land only on the old owner and be
        lost at the cutover: the authority answers ``wrong_shard``."""
        return gen != self.gen and self.old_owner(key) is not None

    def mark(self, key: str, gen: Optional[int]) -> None:
        """A client write stamped ``gen`` landed.  Mark ``key`` dirty if
        the open window moves it, or if the client routed by a newer
        ring generation than ours — it dual-routes by a window we have
        not installed yet (at generation 0 a controlet's ownership
        fence is off, so nothing else stops that write)."""
        if gen is not None and gen > self.gen:
            self.marks[key] = gen
        elif self.old_owner(key) is not None:
            self.marks[key] = self.gen

    def clean(self, key: str) -> bool:
        """May a migrated copy of ``key`` still land?  Not once a client
        wrote it (the copy is older by construction): ``skipped``."""
        return key not in self.marks
