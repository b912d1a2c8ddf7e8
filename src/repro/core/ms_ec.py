"""MS+EC controlet: Master-Slave topology, Eventual Consistency via
asynchronous propagation (paper App C-A, Fig 15a).

The master commits to its local datalet and acks the client
immediately; mutations are buffered and propagated to slaves in
batches ("data is replicated asynchronously in batch mode from master
to slaves", §VI-A).  Any replica serves reads, so reads scale with the
replica count — the property that makes MS+EC match AA+EC on
read-heavy workloads in Fig 12.  The master side,
:class:`AsyncPropagator`, is shared with the AA-MS hybrid
(:mod:`repro.core.hybrid`), whose masters feed plain MS+EC slaves.

**Anti-entropy** (App C-C mentions anti-entropy/reconciliation as the
standard companion of asynchronous replication): batches carry dense
per-master sequence numbers.  A slave that detects a gap — dropped
batches during a partition, a crashed-and-restarted link — requests a
resend from the master's retained-ops window; if the gap predates the
window, the master answers as a replacement's recovery source does
(:meth:`~repro.core.recovery.Recovery._on_sync_pull`): its stream
cursor, and a snapshot taken behind its apply queue, which the slave
restores behind its own.  Slaves therefore converge after arbitrary
message loss, not just in the fault-free case.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.controlet import Controlet, MasterSlaveControlet, Pump
from repro.core.request import Request
from repro.errors import BespoError
from repro.net.message import Message

__all__ = ["AsyncPropagator", "MSEventualControlet"]

#: retained-ops window for resends before snapshot fallback.
RETAIN_LIMIT = 8192


def seq_window(retained: Deque[Tuple[int, dict]]) -> Optional[List[int]]:
    """The retained-ops window as its first and last sequence numbers."""
    return [retained[0][0], retained[-1][0]] if retained else None


class _Frame(list):
    """The ops of one queued ``replicate`` frame, numbered on from
    ``start_seq``; its pump counts it as its ops."""

    def __init__(self, start_seq: int, ops: List[dict]):
        super().__init__(ops)
        self.start_seq = start_seq


class AsyncPropagator(Controlet):
    """Master side of asynchronous propagation: a backlog flushed in
    sequence-numbered batches, one coalesced ``replicate`` frame in
    flight per target, and a retained window that answers slaves'
    ``resend_request``s.  MS+EC and the AA-MS hybrid differ only in
    :meth:`propagation_targets`."""

    fingerprint = ("_seq", "_backlog", "_flush_timer_armed", ("_retained", seq_window))

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: buffered (op, key, val, rid) awaiting propagation.
        self._backlog: List[Tuple[str, str, Optional[str], Optional[str]]] = []
        self._flush_timer_armed = False
        #: next sequence number to assign to a propagated op.
        self._seq = 0
        #: stream identity slaves track sequence numbers against.
        #: Normally our node id; a durable *rejoin* of an MS+EC master
        #: mints a fresh incarnation (see ``MSEventualControlet.on_start``)
        #: because the old counters died with the process — continuing
        #: as the same stream would make every new batch look like a
        #: stale duplicate to the slaves' cursors.
        self._stream_id = self.node_id
        #: recent ops window for resends: (seq, op_dict).
        self._retained: Deque[Tuple[int, Dict[str, Optional[str]]]] = deque(
            maxlen=RETAIN_LIMIT
        )
        self.stats.update(propagated=0, resends_served=0, snapshot_syncs_served=0)
        #: one replicate frame in flight per target link (lazily built in
        #: :meth:`_peer_pump`); each pump queues the :class:`_Frame`\ s
        #: awaiting the link (:meth:`_queue_replicate`).
        self._peer_pumps: Dict[str, Pump] = {}
        # a slave reports its (zero) replicate frames too
        self._units["replicate_frame"] = []
        self.register("resend_request", self._on_resend_request)

    def propagation_targets(self) -> List[str]:
        """Controlets every flushed batch goes to: our shard peers."""
        return [peer.controlet for peer in self.peers()]

    def _enqueue(self, op: str, key: str, val: Optional[str],
                 rid: Optional[str] = None) -> None:
        self._backlog.append((op, key, val, rid))
        if len(self._backlog) >= self.config.ec_batch_max:
            self._flush()
        elif not self._flush_timer_armed:
            self._flush_timer_armed = True
            self.set_timer(self.config.ec_batch_interval, self._flush_tick)

    def _flush_tick(self) -> None:
        self._flush_timer_armed = False
        self._flush()

    def _flush(self) -> None:
        if not self._backlog:
            return
        batch, self._backlog = self._backlog, []
        # rid rides the batch so slaves learn which client operations
        # are already committed — a promoted slave then answers a
        # client's retry from its rid cache instead of re-executing.
        ops = []
        for op, k, v, rid in batch:
            d: Dict[str, Optional[str]] = {"op": op, "key": k, "val": v}
            if rid is not None:
                d["rid"] = rid
            ops.append(d)
        start_seq = self._seq
        for op_dict in ops:
            # retain a private copy: the window is re-served by resend
            # requests and must never alias dicts already shipped to
            # peers — the fabric passes payloads by reference
            self._retained.append((self._seq, dict(op_dict)))
            self._seq += 1
        for target in self.propagation_targets():
            self._queue_replicate(target, start_seq, ops)
        self.stats["propagated"] += len(batch)

    def _queue_replicate(self, peer_id: str, start_seq: int, ops: List[dict]) -> None:
        """Coalesce ``ops`` into the peer's pending frames.  While a
        frame to this peer is still in flight, subsequent flushes merge
        here instead of going out as separate messages — adjacent
        ``replicate`` sends to the same host collapse into one, up to
        ``replicate_batch_max`` ops per frame."""
        pump = self._peer_pump(peer_id)
        cap = self.config.replicate_batch_max
        copies = [dict(op) for op in ops]
        while copies:
            tail = pump.queue[-1] if pump.queue else None
            if (tail is not None and len(tail) < cap
                    and tail.start_seq + len(tail) == start_seq):
                take = copies[:cap - len(tail)]
                tail.extend(take)
            else:
                # a new frame: the link is idle, the buffered tail is
                # full, or it is non-contiguous (the peer missed a flush
                # while absent from the view) and merging would make
                # the frame's start_seq a lie.
                take = copies[:cap]
                pump.push(_Frame(start_seq, take))
            start_seq += len(take)
            del copies[:len(take)]

    def _peer_pump(self, peer_id: str) -> Pump:
        pump = self._peer_pumps.get(peer_id)
        if pump is None:

            def issue(frame: _Frame, done: Callable[[], None]) -> None:
                # At most one replicate frame in flight per peer link.
                # The ack is pure flow control — a lost or timed-out
                # frame is *not* retried here, because the slave's
                # gap-repair anti-entropy path re-fetches anything a
                # dropped frame carried.  What the one-in-flight rule
                # buys is coalescing (everything flushed while the link
                # is busy rides the next frame) and in-order frame
                # arrival on the fabric.
                def acked(resp: Optional[Message],
                          err: Optional[BespoError]) -> None:
                    done()

                self.call(peer_id, "replicate", {
                    "master": self.node_id,
                    "stream": self._stream_id,
                    "start_seq": frame.start_seq,
                    "ops": list(frame),
                }, callback=acked, timeout=self.config.replication_timeout)

            pump = self._peer_pumps[peer_id] = Pump(issue)
            self._pump(f"replicate.{peer_id}", pump, "replicate_frame")
        return pump

    def _on_resend_request(self, msg: Message) -> None:
        """A slave detected a gap.  Serve from the retained window, or,
        if the window has rolled past, answer as a ``sync_pull`` source:
        our cursor, then a snapshot behind our apply queue."""
        from_seq = msg.payload["from_seq"]
        if self._retained and self._retained[0][0] <= from_seq:
            # copies again: the same window entry can be served to
            # several gap-detecting slaves
            ops = [dict(op) for seq, op in self._retained if seq >= from_seq]
            self.stats["resends_served"] += 1
            self.respond(msg, "replicate", {
                "master": self.node_id,
                "stream": self._stream_id,
                "start_seq": from_seq if ops else self._seq,
                "ops": ops,
            })
            return
        self.stats["snapshot_syncs_served"] += 1
        self._recovery._on_sync_pull(msg)

    def sync_source(self, puller: str):
        """A deep-gap repair's cursor: our stream position on top of
        the base's (the hybrid's log cursor)."""
        cursor, undo = super().sync_source(puller)
        return {**cursor, "master": self._stream_id, "seq": self._seq}, undo


class MSEventualControlet(AsyncPropagator, MasterSlaveControlet):
    """Async-propagation controlet with gap-repair anti-entropy."""

    accept_cap = "ec_batch_max"
    fingerprint = ("_stream", "_repair_pending")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -- slave state --------------------------------------------------
        #: (stream identity, next expected sequence).
        self._stream: Tuple[Optional[str], int] = (None, 0)
        self._repair_pending = False
        self.stats.update(applied_from_master=0, gaps_detected=0)
        if self.rejoining and self._view_says_head():
            # A rejoining EC *master* is the authority for acked data:
            # its WAL holds acked-but-never-propagated writes that no
            # slave can supply, so a peer pull (which reset-restores)
            # would silently drop durable acks.  Recover from local
            # state alone; slaves resync against the fresh incarnation.
            self.recovered = True
            # seq 0 is never assigned/retained: a slave resyncing the
            # new incarnation from 0 misses the retained window and
            # pulls our snapshot (``_on_resend_request``) — which is
            # what carries the recovered unpropagated writes back out.
            self._seq = 1
        self.register("replicate", self._on_replicate)
        # seq_probe stays MS+EC-only: a hybrid slave's view names another
        # master as head, so hybrid masters answering it would flip that
        # slave between two streams.
        self.register("seq_probe", self._on_seq_probe)

    # ------------------------------------------------------------------
    # periodic anti-entropy
    # ------------------------------------------------------------------
    def _view_says_head(self) -> bool:
        """Whether our spawn-time shard view names us as master."""
        try:
            return self.shard.head.controlet == self.node_id
        except Exception:  # noqa: BLE001 - empty view during transitions
            return False

    def on_start(self) -> None:
        if self.rejoining and self._view_says_head():
            # Mint the fresh incarnation for this boot.  Sim time is
            # deterministic and strictly increasing across rejoins of
            # the same node, so the identity is both unique and
            # reproducible run-to-run.
            self._stream_id = f"{self.node_id}@{self.now():.6f}"
        super().on_start()
        # An immediate first tick is useless (nothing replicated yet);
        # arm with a stable phase so this loop and the heartbeat — same
        # 1s period, both starting at boot — never fire at one timestamp.
        self.set_timer(
            self.loop_phase("anti-entropy", self.config.replication_timeout),
            self._anti_entropy_tick,
        )

    def _anti_entropy_tick(self) -> None:
        """Tail-of-stream repair: a gap is normally detected when the
        *next* batch arrives, but if the final batches of a burst are
        lost there is no next batch.  Slaves therefore periodically
        compare their cursor against the master's sequence counter."""
        self.set_timer(self.config.replication_timeout, self._anti_entropy_tick)
        if self.retired or not self.recovered or self.is_head:
            return
        try:
            master_id = self.shard.head.controlet
        except Exception:  # noqa: BLE001 - empty shard view mid-repair
            return
        if master_id == self.node_id:
            return

        def on_seq(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if resp is None or resp.type != "seq_info":
                return
            probed_stream = resp.payload.get("stream", resp.payload["master"])
            master_seq = int(resp.payload["seq"])
            tracked, next_seq = self._stream
            if probed_stream != tracked:
                # unfamiliar numbering — a new master, or the old one
                # rebooted into a fresh incarnation: resync from its
                # first op (the replicate/adoption path would do the
                # same).  Repairs are addressed to the *actor* we
                # probed; the stream identity is not routable.
                if master_seq > 0:
                    self._request_repair(master_id, 0)
            elif master_seq > next_seq:
                self._request_repair(master_id, next_seq)

        # Timeout strictly inside the tick period: a full-period timeout
        # expires at the exact timestamp of the *next* tick whenever the
        # master is unreachable, tying the abandon-probe and new-probe
        # events on the heap (a schedule-sensitivity races.py flags).
        self.call(
            master_id,
            "seq_probe",
            {},
            callback=on_seq,
            timeout=self.config.replication_timeout / 2,
        )

    def _on_seq_probe(self, msg: Message) -> None:
        self.respond(msg, "seq_info", {
            "master": self.node_id, "stream": self._stream_id, "seq": self._seq,
        })

    # ------------------------------------------------------------------
    # hole-free recovery (replacement slave)
    # ------------------------------------------------------------------
    def on_sync_state(self, state) -> None:
        # Adopt the source's stream cursor (a replacement's, or a deep
        # gap's): its snapshot covers every op numbered below it, and
        # the gap-repair path fetches the rest.
        self._stream = (state.get("master"), int(state.get("seq", 0)))

    def sync_source(self, puller: str):
        """We are the recovery source: capture our stream position
        first; the snapshot queues behind every batch it counts.
        Re-applying overlap is idempotent; a skipped op would be a lost
        write."""
        if self.is_head:
            master, seq = self._stream_id, self._seq
        else:
            master, seq = self._stream
        return {"master": master, "seq": seq}, None

    # ------------------------------------------------------------------
    # write path (master)
    # ------------------------------------------------------------------
    def _forward_down(self, req: Request) -> None:
        # EC: ack as soon as one replica (ours) has the write, then
        # propagate asynchronously.
        req.ack()
        self._enqueue(req.op, req.msg.payload["key"],
                      req.msg.payload.get("val"), req.rid)

    # ------------------------------------------------------------------
    # slave side
    # ------------------------------------------------------------------
    def _on_replicate(self, msg: Message) -> None:
        if not self.recovered:
            self._catch_up_later(msg)
            return
        master = msg.payload["master"]
        stream = msg.payload.get("stream", master)
        start_seq = int(msg.payload["start_seq"])
        ops = msg.payload["ops"]
        tracked_stream, next_seq = self._stream
        if stream != tracked_stream:
            # New stream (failover, or the same master rebooted into a
            # fresh incarnation): we cannot assume our state covers its
            # history below start_seq — batches it flushed before we
            # started listening are simply gone from our perspective.
            # Conservatively resync from its first op; overlap
            # re-applies are idempotent and the master falls back to a
            # snapshot if its window rolled past.
            tracked_stream, next_seq = stream, 0
        if start_seq > next_seq:
            # gap: batches were lost (partition, drop).  Ask for a
            # resend and discard this batch — the resend covers it.
            self.stats["gaps_detected"] += 1
            self._stream = (tracked_stream, next_seq)
            self._request_repair(master, next_seq)
            self._ack_receipt(msg)
            return
        skip = next_seq - start_seq
        if skip >= len(ops) and ops:
            self._ack_receipt(msg)
            return  # duplicate/overlapping resend, fully applied already
        fresh = ops[skip:]
        if fresh:
            # one ordered apply_batch per batch — per-op messages could
            # reorder in flight and apply a delete before its put — and
            # at most one batch in flight (Controlet._issue_apply).
            self._applies.push(("apply_batch", {"ops": fresh}))
            self.stats["applied_from_master"] += len(fresh)
            # learn the rids this batch carries: if we are later promoted
            # to master, a client retrying one of these ops gets its
            # cached ack instead of a re-execution.
            for op_dict in fresh:
                rid = op_dict.get("rid")
                if rid is not None:
                    self._remember_rid(rid)
        self._stream = (tracked_stream, start_seq + len(ops))
        self._repair_pending = False
        self._ack_receipt(msg)

    def _request_repair(self, master: str, from_seq: int) -> None:
        if self._repair_pending:
            return
        self._repair_pending = True

        def on_reply(resp: Optional[Message], err: Optional[BespoError]) -> None:
            self._repair_pending = False
            if resp is None or err is not None:
                return  # master gone; failover will rewire the stream
            if resp.type == "replicate":
                self._on_replicate(resp)
            elif resp.type == "sync_state":
                # The master's window rolled past: adopt its snapshot
                # wholesale.  The restore resets (a key the master lacks
                # was deleted there) and queues behind every older
                # replicated batch, which would otherwise apply *over*
                # the newer snapshot with the cursor already past them.
                self.on_sync_state(resp.payload)
                self._applies.push(
                    ("restore", {"data": resp.payload["data"], "reset": True}))

        self.call(
            master,
            "resend_request",
            {"from_seq": from_seq},
            callback=on_reply,
            timeout=self.config.replication_timeout * 4,
        )

    # ------------------------------------------------------------------
    # transition support
    # ------------------------------------------------------------------
    def prepare_retirement(self, done) -> None:
        """Flush everything buffered before handing over (paper §V-A:
        "the old master keeps flushing out any pending propagation")."""
        self._flush()
        # allow the final batch one network round before declaring ready
        self.set_timer(self.config.replication_timeout, done)
