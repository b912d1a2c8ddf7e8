"""The reshard gate and the controlet's reshard participant.

A migrated copy must never clobber a client write its key took during
the window.  Each controlet and each shard's ordering authority (the
DLM for AA+SC, the shared-log sequencer for AA+EC) holds one
:class:`ReshardGate` and asks it the same questions: ``mark`` a client
write, ``clean`` for a migrated copy, ``stale`` for a write routed by
another ring generation.  An authority passes itself as ``owner`` and
the gate serves ``reshard_begin``/``reshard_end``, arming it before any
controlet or client learns the window.

A controlet's gate is a :class:`ReshardParticipant`: the whole
controlet side of a reshard.  It holds the ownership fence, drives the
source's key migration (census, one-in-flight copy pump,
``migrate_done``) and admits migrated copies at the destination.  The
controlet arms it only through its epoch-fenced ring install and keeps
three per-combo hooks: the census barrier (``_migrate_barrier``), the
per-key copy (``_migrate_copy``) and the destination write path
(``_admit_migrate``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.cluster.routing import RingRouting
from repro.core.pump import Pump
from repro.errors import BespoError
from repro.net.actor import Actor
from repro.net.message import Message

if TYPE_CHECKING:
    from repro.core.controlet import Controlet

__all__ = ["ReshardGate", "ReshardParticipant"]


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


class ReshardParticipant(ReshardGate):
    """A controlet's side of every reshard, registered on ``owner``."""

    def __init__(self, owner: Controlet):
        super().__init__()
        self._owner = owner
        #: highest window generation we acked a ``reshard_fence`` for:
        #: from then on the dual-routed old-ring leg of that window is
        #: rejected too, so no stale read survives the cutover.
        self.fenced = 0
        #: last window generation a migration was driven for (duplicate
        #: ``reshard_migrate`` orders are dropped) and the counts of the
        #: one in flight (``None`` when idle).
        self._migrated = 0
        self._counts: Optional[Dict[str, int]] = None
        #: one key copy in flight (the owner registers it with its pumps)
        self.copies = Pump(self._copy)
        owner.register("reshard_migrate", self._on_reshard_migrate)
        owner.register("reshard_fence", self._on_reshard_fence)
        owner.register("migrate_put", self._on_migrate_put)

    # -- client ops -----------------------------------------------------
    def admit(self, msg: Message) -> bool:
        """Ownership fence for one keyed client op (``False``: bounce it
        with ``wrong_shard``); an admitted write marks its key.  Once
        the ring has re-versioned (gen > 0: only hash rings reshard),
        routing is no longer derivable from the static shard list, so
        ops for keys the current ring assigns elsewhere bounce.  The one
        sanctioned exception is the dual-routed *old-ring* leg of an
        open, not-yet-fenced window, from clients that stamped its gen."""
        key, gen = msg.payload["key"], msg.payload.get("gen")
        me = self._owner.shard.shard_id
        if self.gen > 0 and self.ring.lookup(key) != me and not (
                self.window is not None and self.gen > self.fenced
                and gen == self.gen and self.old_owner(key) == me):
            return False
        if msg.type in ("put", "del"):
            # an in-window migrated copy (an older value by
            # construction) must never clobber a client write
            self.mark(key, gen)
        return True

    def dest(self, key: str) -> Optional[str]:
        """Entry controlet of ``key``'s new-ring owner, if any."""
        if self.window is None:
            return None
        return self.window.get("entries", {}).get(self.ring.lookup(key))

    # -- source side: census, then one copy in flight --------------------
    def _on_reshard_migrate(self, msg: Message) -> None:
        """Coordinator order: the owner's range shrinks under the new
        ring — copy every moved key to its new owner, then report
        ``migrate_done``."""
        desc = dict(msg.payload["reshard"])
        gen = int(desc["gen"])
        if self._counts is not None or gen <= self._migrated:
            return  # duplicate order (fabric dup or coordinator retry)
        owner = self._owner
        # the order can outrun the config broadcast: adopt the window
        # straight from its descriptor (a no-op when already installed)
        owner._install_shard(owner.shard, {
            "epoch": msg.payload.get("epoch"),
            "ring": {"gen": gen, "ids": list(desc["new"]), "reshard": desc}})
        self._migrated = gen
        self._counts = dict.fromkeys(("total", "moved", "skipped", "retries"), 0)
        owner._migrate_barrier(self._census)

    def _census(self) -> None:
        """Snapshot the owner's engine and pump every key this shard owns
        under the *old* ring whose *new*-ring owner is another shard
        (sorted: deterministic copy order).

        The old-ring clause is load-bearing: a source shard may hold
        stale leftovers of keys that migrated *away* in an earlier
        reshard (copies are not purged at commit).  Those keys are not
        ours to ship — the current owner's value is newer, and the
        dirty marks protect no key the open window does not move — so
        re-migrating them would clobber live data at the owner."""
        owner = self._owner

        def have(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None or resp.type != "snapshot":
                # datalet briefly unreachable: the census must land
                owner.set_timer(0.05, self._census)
                return
            me = owner.shard.shard_id
            keys = [k for k in sorted(resp.payload["data"])
                    if self.old_owner(k) == me]
            self._counts["total"] = len(keys)
            for key in keys:
                self.copies.push(key)
            self._settle()

        owner.datalet_call("snapshot", {}, callback=have)

    def _copy(self, key: str, done: Callable[[], None]) -> None:
        """One key through the owner's ``_migrate_copy``; a ``retry``
        goes back to the front, so the retry keeps its rid (FIFO)."""

        def complete(outcome: str) -> None:
            if outcome == "retry":
                self._counts["retries"] += 1
                self.copies.requeue_front([key])
            else:
                self._counts[outcome] += 1
            done()
            self._settle()

        self._owner._migrate_copy(key, complete)

    def _settle(self) -> None:
        """Report ``migrate_done`` once every censused key was moved or
        skipped."""
        counts = self._counts
        if counts is None or counts["moved"] + counts["skipped"] < counts["total"]:
            return
        self._counts = None
        shard = self._owner.shard.shard_id
        self._owner.send(self._owner.coordinator, "migrate_done", {"shard": shard, **counts})

    # -- destination side: dirty-checked idempotent apply ----------------
    def _on_migrate_put(self, msg: Message) -> None:
        if not self.clean(msg.payload["key"]):
            # a client wrote this key during the window — the source's
            # copy is older by construction and must not clobber it
            self._owner.respond(msg, "ok", {"skipped": True})
            return
        self._owner._admit_migrate(msg)

    # -- fence: close the old-ring leg before the view flips -------------
    def _on_reshard_fence(self, msg: Message) -> None:
        self.fenced = max(self.fenced, int(msg.payload.get("gen", 0)))
        self._owner.send(self._owner.coordinator, "reshard_fenced",
                         {"controlet": self._owner.node_id})
