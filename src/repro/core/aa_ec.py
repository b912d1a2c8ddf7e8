"""AA+EC controlet: Active-Active topology, Eventual Consistency via a
shared log (paper App C-C, Fig 15c).

Any active accepts any request.  A write is first appended to the
shared log — whose sequencer imposes the global order that plain
gossip (Dynomite) cannot guarantee under conflicting concurrent Puts —
then applied to the local datalet and acked.  Every active polls the
log (``AsyncFetch``) and applies entries written by its peers, skipping
its own.  Reads are local.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.controlet import Controlet, Pump
from repro.core.request import Request
from repro.errors import BespoError
from repro.net.message import Message
from repro.sharedlog import log_name

__all__ = ["AAEventualControlet"]


class AAEventualControlet(Controlet):
    """Shared-log controlet."""

    fingerprint = ("cursor", "_start_at_tail", "_fetch_armed", ("_draining", bool))

    def __init__(
        self,
        *args,
        sharedlog: str = "sharedlog",
        start_cursor_at_tail: bool = False,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.sharedlog = sharedlog
        #: next log position to fetch.
        self.cursor = 0
        #: joiners (transition/recovery launches) start replaying at the
        #: current tail: everything older is already in their datalet
        #: (via snapshot) or belongs to the previous service generation.
        self._start_at_tail = start_cursor_at_tail
        self.stats["applied_from_log"] = 0
        #: accepted writes waiting for the sequencer, in arrival order;
        #: drained in group-commit batches by :meth:`_issue_order` with
        #: at most one sequenced batch in flight per controlet.
        self._orders = Pump(self._issue_order, cap=self.config.group_commit_max)
        self._pump("order", self._orders, "group_commit")
        #: ``(target, then)`` waiters of :meth:`_replay_to_tail`, fired
        #: by the fetch loop once the cursor reaches their target.
        self._draining: List[Tuple[int, Callable[[], None]]] = []
        self._fetch_armed = False

    def on_start(self) -> None:
        super().on_start()
        if not self.recovered:
            return  # sync_pull installs the cursor, then replay starts
        if self._start_at_tail:
            self._fetch_initial_tail()
        else:
            self._arm_fetch()

    # ------------------------------------------------------------------
    # hole-free recovery (replacement active)
    # ------------------------------------------------------------------
    def on_sync_state(self, state) -> None:
        # Resume replay from the *source's* cursor (not the log tail):
        # anything its snapshot misses sits at or after that position.
        self.cursor = int(state.get("cursor", 0))
        self._start_at_tail = False
        self._arm_fetch()

    def sync_source(self, puller: str):
        """We are the recovery source: hand out our replay cursor; the
        snapshot queues behind every replayed batch it counts."""
        return {"cursor": self.cursor}, None

    def _fetch_initial_tail(self) -> None:
        self.call(
            self.sharedlog,
            "log_fetch",
            {"pos": 1 << 62, "max": 1},
            callback=self._on_initial_tail,
            timeout=self.config.replication_timeout,
        )

    def _on_initial_tail(self, resp: Optional[Message], err: Optional[BespoError]) -> None:
        if resp is not None and resp.type == "entries":
            self.cursor = resp.payload["tail"]
            self._start_at_tail = False
            self._arm_fetch()
        else:  # log unreachable; retry shortly
            self.set_timer(self.config.replication_timeout, self._fetch_initial_tail)

    def _arm_fetch(self) -> None:
        if self._fetch_armed:
            return
        self._fetch_armed = True
        self.set_timer(self.config.log_fetch_interval, self._fetch_tick)

    def on_shard_changed(self) -> None:
        # A restarted node unfences through here: make sure the replay
        # loop (which stops while retired) is running again.
        if not self.retired and self.recovered and not self._start_at_tail:
            self._arm_fetch()

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def _accept_write(self, msg: Message, op: str) -> None:
        # Local gate catches a retry re-entering at this active; the
        # sequencer's own rid→pos dedup catches retries that were routed
        # to a *different* active (sharedlog/log.py).
        req = self.begin_write(msg, op)
        if req is not None:
            # Group commit: writes arriving while a sequenced batch is
            # in flight accumulate here and go out together, amortizing
            # the sequencer round-trip (one ``log_append_batch`` instead
            # of N ``log_append``s) without changing arrival order.
            self._orders.push(req)

    def _issue_order(self, batch: List[Request], done: Callable[[], None]) -> None:
        """At most one sequenced batch in flight per controlet.

        One-in-flight is what preserves per-key FIFO for writes accepted
        at the same active: batch N is fully sequenced before batch N+1
        leaves, so the log order of two same-key writes matches their
        arrival order here.  The pump is released once the sequencer
        answered and the group's local ``apply_batch`` has been
        *issued*: the contract is one *sequenced* batch in flight, and
        holding the pump until the apply returned would idle queued
        writes for a datalet round trip (log replay, not the
        accept-time apply, is what orders the replica's final state)."""
        entries = []
        for req in batch:
            entry = {"op": req.op, "key": req.msg.payload["key"],
                     "val": req.msg.payload.get("val")}
            if req.rid is not None:
                entry["rid"] = req.rid
            entries.append(entry)

        def on_appended(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None or resp.type != "appended_batch":
                self.stats["errors"] += len(batch)
                for req in batch:
                    req.fail(f"shared log append failed: {err}")
                done()
                return
            fresh: List[Request] = []
            for req, r in zip(batch, resp.payload["results"]):
                if r.get("dup"):
                    # The sequencer has this rid already: the original
                    # attempt owns the log slot and replay delivers the
                    # value.  Do NOT apply locally — a late second apply
                    # here could overwrite newer replayed state on this
                    # replica only, diverging it from its peers.
                    req.ack()
                elif r.get("wrong_shard"):
                    # Sequencer reshard backstop: our ring view is stale
                    # for this (moved) key — the entry was *not*
                    # sequenced.  Surface it so the client refreshes and
                    # re-routes; nothing to apply locally.
                    self.stats["errors"] += 1
                    req.fail("wrong_shard")
                else:
                    fresh.append(req)

            def after_local(dresp: Optional[Message], derr: Optional[BespoError]) -> None:
                if derr is not None or dresp is None or dresp.type == "error":
                    self.stats["errors"] += len(fresh)
                    for req in fresh:
                        req.fail(f"local apply failed: {derr}")
                else:
                    # apply_batch tolerates deletes of absent keys (our
                    # replica may simply not have replayed the put yet;
                    # the log entry *is* the delete), so every member is
                    # applied-or-moot here: ack them all.
                    for req in fresh:
                        req.ack()

            if fresh:
                # One ordered apply_batch for the whole group: same
                # serialization the replay path uses, so accept-time
                # applies cannot interleave out of log order on a
                # multi-slot CPU.
                ops = [{"op": r.op, "key": r.msg.payload["key"],
                        "val": r.msg.payload.get("val")} for r in fresh]
                self.datalet_call("apply_batch", {"ops": ops}, callback=after_local)
            done()

        self.call(
            self.sharedlog,
            "log_append_batch",
            # the ring generation rides along so the sequencer can fence
            # stale-routed writes during a reshard window
            {"entries": entries, "gen": self._gate.gen},
            callback=on_appended,
            timeout=self.config.replication_timeout,
        )

    # ------------------------------------------------------------------
    # resharding: log-ordered migration
    # ------------------------------------------------------------------
    def _replay_to_tail(self, then: Callable[[], None],
                        unreachable: Callable[[], None]) -> None:
        """Call ``then`` once we have replayed the log up to its tail as
        of now (``unreachable`` if the log does not answer)."""

        def on_tail(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if resp is None or resp.type != "entries":
                unreachable()
                return
            target = int(resp.payload["tail"])
            if self.cursor >= target:
                then()
            else:
                self._draining.append((target, then))

        self.call(
            self.sharedlog,
            "log_fetch",
            {"pos": self.cursor, "max": 1},
            callback=on_tail,
            timeout=self.config.replication_timeout,
        )

    def _migrate_barrier(self, then) -> None:
        """Reshard census barrier: drain our accepted-but-unsequenced
        writes, then replay our own log up to its current tail — after
        that the local engine holds every write sequenced before the
        window opened, so the census (and the per-key copies) read
        authoritative values.  Writes sequenced *during* the window are
        covered by the destination sequencer's dirty marks instead."""

        def replay() -> None:
            # log briefly unreachable: the barrier must land
            self._replay_to_tail(then, lambda: self.set_timer(
                self.config.replication_timeout, replay))

        self._after_drain(self._orders, replay)

    def _migrate_copy(self, key, complete) -> None:
        """Copy one moved key by appending it to the *destination*
        shard's log (one sequencer per shard, named by ``log_name``).
        The destination's sequencer is the ordering authority: it
        refuses the copy (``skipped``) when a client write for the key
        was sequenced during the window, and a clean copy enters the log
        as a plain put entry — replaying replicas (and the hybrid's
        slaves) need no special casing."""
        dest_log = log_name(self._gate.ring.lookup(key))
        self._read_for_copy(key, complete, lambda val: self._ship_copy(
            key, val, dest_log, "log_append", complete, op="put"))

    # ------------------------------------------------------------------
    # log replay
    # ------------------------------------------------------------------
    def _fetch_tick(self) -> None:
        self._fetch_armed = False
        if self.retired:
            return

        def on_entries(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if resp is not None and resp.type == "entries":
                self._apply_entries(resp.payload["entries"])
                tail = resp.payload["tail"]
                if self._draining:
                    waiters, self._draining = self._draining, []
                    for target, then in waiters:
                        if self.cursor >= target:
                            then()
                        else:
                            self._draining.append((target, then))
                # keep pulling immediately if we are behind
                if self.cursor < tail:
                    self._fetch_tick()
                    return
            self._arm_fetch()

        self.call(
            self.sharedlog,
            "log_fetch",
            {"pos": self.cursor, "max": self.config.log_fetch_max},
            callback=on_entries,
            timeout=self.config.replication_timeout,
        )

    def _apply_entries(self, entries) -> None:
        # Replay *everything* in log order — including our own writes,
        # which we already applied once at accept time.  The log's total
        # order is the authority: skipping own entries would let a
        # peer's older write overwrite our newer one during replay and
        # the replicas would never converge.  One ordered apply_batch
        # per fetch so network jitter cannot reorder entries, and at
        # most one in flight (Controlet._issue_apply).
        ops = []
        for d in entries:
            pos = int(d["pos"])
            if pos < self.cursor:
                continue
            self.cursor = pos + 1
            ops.append({"op": d["op"], "key": d["key"], "val": d["value"]})
        if ops:
            self.stats["applied_from_log"] += len(ops)
            self._applies.push(("apply_batch", {"ops": ops}))

    # ------------------------------------------------------------------
    # transition support
    # ------------------------------------------------------------------
    def prepare_retirement(self, done) -> None:
        """Drain: hand over only after we have replayed the log up to
        its tail as of the transition start (paper §V-B: the new master
        takes the in-flight Puts from the Shared Log).  If the log is
        unreachable there is nothing more we can replay."""
        self._replay_to_tail(done, unreachable=done)
