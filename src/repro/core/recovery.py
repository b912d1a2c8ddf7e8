"""Replacement recovery: the hole-free state-transfer handshake.

A controlet launched as a replacement pair, or re-spawned on its old
host after a durable crash, copies its state from a live member before
it serves.  :class:`Recovery` is that whole handshake, one per
controlet: the controlet builds it as ``_recovery`` and it registers
``sync_pull`` on its owner.

The replacement sends ``sync_pull`` to its source controlet, which arms
its relay and names its protocol cursor (the owner's ``sync_source``
hook) before it snapshots.  The snapshot queues in the source's apply
pump, behind every replicated batch the cursor already counts, so the
catch-up starts exactly where the snapshot ends.  Replication messages
that reach the replacement meanwhile are parked (:meth:`Recovery.park`)
and replayed once the owner's ``on_sync_state`` hook adopted the
cursor; the owner's ``on_caught_up`` hook then hears that the replay is
done.  Those three hooks are all a combo adds.

This is the only way a controlet copies state from a peer: an async
propagator whose retained window rolled past a slave's gap answers the
slave's ``resend_request`` with the same :meth:`Recovery._on_sync_pull`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.core.types import ShardInfo
from repro.errors import BespoError
from repro.net.message import Message

if TYPE_CHECKING:
    from repro.core.controlet import Controlet

__all__ = ["Recovery"]


class Recovery:
    """A controlet's side of replacement recovery, registered on ``owner``."""

    def __init__(self, owner: Controlet, source: Optional[str]):
        self._owner = owner
        #: datalet to copy state from when launched as a standby
        #: replacement (paper: "recovers the data from one of the
        #: datalets").
        self.source = source
        #: set when a rejoining controlet learns the coordinator already
        #: swept it: armed retry timers re-check it and fizzle.
        self.abandoned = False
        #: replication messages that arrived while we were still copying
        #: state from the recovery source; replayed (in arrival order)
        #: once the snapshot is restored.  See :meth:`recover`.
        self.catchup: List[Message] = []
        owner.register("sync_pull", self._on_sync_pull)

    # -- replacement side ------------------------------------------------
    def confirm_membership(self, attempt: int = 0) -> None:
        """Ask a coordinator whether the owner is still a shard member:
        unfence it if so; a rejoining owner the coordinator already
        swept abandons its recovery and stays fenced."""
        owner = self._owner
        coords = [owner.coordinator] + list(owner.backup_coordinators)

        def again() -> None:
            owner.set_timer(
                owner.config.heartbeat_interval,
                lambda: self.confirm_membership(attempt + 1),
            )

        def on_info(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if resp is None or resp.type != "shard_info":
                again()
                return
            shard = ShardInfo.from_dict(resp.payload["shard"])
            if any(r.controlet == owner.node_id for r in shard.replicas):
                owner._install_shard(shard, resp.payload)
                owner.retired = False
                owner.on_shard_changed()
            elif owner.rejoining:
                # we came back from disk but the coordinator already
                # swept us — a replacement pair owns the slot.  Stop
                # recovering (armed retry timers re-check the flag and
                # fizzle); this process stays a fenced zombie.
                self.abandoned = True
                owner.retired = True
            elif not owner.recovered:
                # mid-recovery replacement: not joined yet — keep
                # polling until the coordinator adds us.
                again()
            # else: we were repaired out of the shard; stay fenced.

        owner._ask_shard_info(coords[attempt % len(coords)], on_info)

    def recover(self) -> None:
        """Hole-free state transfer, then report readiness.  A plain
        datalet snapshot would lose every write committed between it and
        our join, so we ``sync_pull`` the *source controlet*, which arms
        its relay to us before it snapshots (:meth:`_on_sync_pull`);
        what reaches us meanwhile is parked (:meth:`park`) and replayed
        once the owner's ``on_sync_state`` adopted the cursor."""
        owner = self._owner
        src = self.source_controlet()
        if src is None or src == owner.node_id:
            # The source was repaired out of the shard (it died while we
            # were copying): fall back to the current head, which under
            # every topology here holds a superset of committed state.
            try:
                head = owner.shard.head
            except Exception:  # noqa: BLE001 - empty shard view
                head = None
            if head is None or head.controlet == owner.node_id:
                # no controlet to pull from: a plain datalet snapshot
                self._pull_state(self.source, "snapshot", {},
                                 "snapshot", lambda state: self._done())
                return
            self.source, src = head.datalet, head.controlet

        def restored(state: Dict[str, Any]) -> None:
            owner.on_sync_state(state)
            self._done()
            parked, self.catchup = self.catchup, []
            for m in parked:
                handler = owner._handlers.get(m.type)
                if handler is not None:
                    handler(m)
            owner.on_caught_up()

        self._pull_state(
            src, "sync_pull",
            {"controlet": owner.node_id, "datalet": owner.datalet},
            "sync_state", restored,
        )

    def _pull_state(self, target: str, pull_type: str, payload: Dict[str, Any],
                    reply_type: str, then: Callable[[Dict[str, Any]], None]) -> None:
        """Pull ``reply_type`` state from ``target``, restore its
        ``data`` into our datalet, ``then(state)``; any failure retries
        :meth:`recover` after a beat, behind a view refresh.  Restores
        reset, so a rejoining node's stale keys cannot resurrect deletes."""
        if self.abandoned:
            return
        owner = self._owner

        def retry() -> None:
            owner.set_timer(owner.config.replication_timeout,
                            lambda: owner.refresh_shard(then=self.recover))

        def on_state(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if self.abandoned:
                return
            if err is not None or resp is None or resp.type != reply_type:
                retry()
                return
            state = dict(resp.payload)

            def restored(r: Optional[Message], e: Optional[BespoError]) -> None:
                if self.abandoned:
                    return
                if e is not None:
                    retry()
                else:
                    then(state)

            owner.datalet_call(
                "restore", {"data": state.get("data", {}), "reset": True},
                callback=restored,
            )

        self._owner.call(target, pull_type, payload, callback=on_state,
                         timeout=owner.config.replication_timeout * 10)

    def _done(self) -> None:
        owner = self._owner
        owner.recovered = True
        owner._tell_coordinators(
            "recovery_done",
            {"controlet": owner.node_id, "shard": owner.shard.shard_id},
        )

    def source_controlet(self) -> Optional[str]:
        """Controlet owning our recovery-source datalet, per our spawn
        -time shard view (None if the view no longer lists it)."""
        if self.source is None:
            return None
        for r in self._owner.shard.ordered():
            if r.datalet == self.source:
                return r.controlet
        return None

    def park(self, msg: Message) -> None:
        """Mid-recovery: keep ``msg`` for replay after the restore
        (overlap re-applies are idempotent)."""
        self.catchup.append(msg)

    # -- source side -----------------------------------------------------
    def _on_sync_pull(self, msg: Message) -> None:
        """Source side of :meth:`recover`, and of an async propagator's
        deep-gap repair: the relay is armed and the cursor taken (the
        owner's ``sync_source``) first, and the snapshot then queues in
        the owner's apply pump behind every replicated batch that cursor
        counts, so snapshot ∪ relay covers every write; a failed
        snapshot disarms."""
        cursor, undo = self._owner.sync_source(msg.src)

        def with_snap(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None or resp.type != "snapshot":
                if undo is not None:
                    undo()
                self._owner.respond(msg, "error", {"error": f"snapshot failed: {err}"})
                return
            self._owner.respond(msg, "sync_state", {"data": resp.payload["data"], **cursor})

        self._owner._applies.push(("snapshot", {}, with_snap))
