"""Controlet base class (paper §III-B).

A controlet is the control-plane proxy paired with one datalet.  It
terminates client requests, runs the replication protocol of its
topology/consistency combination, heartbeats the coordinator, follows
cluster-map updates, performs recovery when launched as a replacement
pair, and supports live retirement during topology/consistency
transitions (§V).

Subclasses implement the write path (``_accept_write``), override the
read hooks (``handle_get``/``handle_scan``) where their consistency
model demands it, and add whatever replication message handlers their
protocol needs.  Everything else (heartbeats, config updates,
transition forwarding, recovery, stats) lives here — the reuse story
the paper tells with its ~150-LoC template.  Ours is
larger: ``benchmarks/test_sec7_dev_effort.py`` counts this template and
each controlet's delta over it in logical lines, and ratchets every
number so it can only go down.

Recovery is one :class:`~repro.core.recovery.Recovery` (``_recovery``)
for every combo: the replacement-recovery handshake, its source, the
abandon flag and the catch-up park.  A combo adds only its cursor hooks
(:meth:`Controlet.sync_source`, :meth:`Controlet.on_sync_state`) and,
for AA+SC, the :meth:`Controlet.on_caught_up` notice.  The
one-in-flight replicated-apply pump (``_applies``) that both EC combos
feed lives here too; every snapshot a peer pulls queues in it, behind
the applies its cursor counts.

Every :class:`~repro.core.pump.Pump` a controlet drives is registered
once (:meth:`Controlet._pump`).  The registry alone yields the pumps'
fingerprint entry (each pump's backlog and busy flag), the batching
metrics (``chain_frames``, ``replicate_frames``, ``group_commits``, each
with its ``_ops`` count, and ``coalesce_ratio``) and the
``batch.<unit>_size`` histograms.

The model-checker fingerprint is declared, not written: the template,
each shared base and each combo lists its protocol fields once as
``fingerprint`` (the template's parts by dotted path, a derived value
with a named reducer), merged along the MRO by
:meth:`Actor.snapshot_state`, so the AA-MS hybrid declares nothing.
Counters are ``stats`` keys, which no fingerprint holds.

Resharding is one :class:`~repro.cluster.gate.ReshardParticipant`
(``_gate``), whose ring the epoch-fenced ``_install_shard`` alone
installs.  It serves ``reshard_migrate``, ``reshard_fence`` and
``migrate_put``, holds the ownership fence ``_client_op`` asks and the
dirty marks, and drives the census and the copy pump.  A combo adds
only its steps: the census barrier (:meth:`Controlet._migrate_barrier`),
the per-key copy (:meth:`Controlet._migrate_copy`) and the destination
write path (:meth:`Controlet._admit_migrate`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.cluster.gate import ReshardParticipant
from repro.core.config import ControlConfig
from repro.core.pump import Pump
from repro.core.recovery import Recovery
from repro.core.request import Request
from repro.core.types import Replica, ShardInfo
from repro.errors import BespoError
from repro.net.actor import Actor
from repro.net.message import Message

__all__ = ["Controlet", "MasterSlaveControlet", "Pump"]

#: client-facing operation message types.
CLIENT_OPS = ("put", "get", "del", "scan")

#: request-id dedup memory per controlet (completed-write cache size).
RID_CACHE = 65536


# reducers of the template's declared state (see ``Controlet.fingerprint``)
def replica_ids(shard: ShardInfo) -> List[str]:
    """A shard view as its controlets, in replica order."""
    return [r.controlet for r in shard.ordered()]


def members(ring: Any) -> Optional[List[str]]:
    """A hash ring as its members (``None``: no ring)."""
    return None if ring is None else ring.members


def backlogs(pumps: Dict[str, Pump]) -> Dict[str, Tuple[int, bool]]:
    """The pump registry as each pump's ``(queued items, busy)``."""
    return {name: (len(pump), pump.busy) for name, pump in pumps.items()}


class Controlet(Actor):
    """Common machinery for every topology/consistency controlet."""

    fingerprint = (
        ("shard", replica_ids), "_config_epoch", "recovered", "retired",
        "forward_writes_to", "_datalet_strikes", "_datalet_reported",
        "_recovery.source", "_recovery.abandoned", ("_recovery.catchup", len),
        "_gate.gen", "_gate.fenced", "_gate.window", "_gate.marks",
        "_gate._migrated", "_gate._counts", ("_gate.ring", members),
        ("_gate.old_ring", members), ("_pumps", backlogs))

    def __init__(
        self,
        node_id: str,
        shard: ShardInfo,
        datalet: str,
        coordinator: str,
        config: Optional[ControlConfig] = None,
        recovery_source: Optional[str] = None,
        datalet_colocated: bool = True,
        backup_coordinators: Optional[List[str]] = None,
        rejoin: bool = False,
    ):
        super().__init__(node_id)
        self.shard = shard
        self.datalet = datalet
        self.coordinator = coordinator
        #: standby coordinators also receive our heartbeats so a
        #: promoted follower owns fresh liveness data (§VII).
        self.backup_coordinators = backup_coordinators or []
        self.config = config or ControlConfig()
        #: False when the paper's N:1 controlet:datalet mapping places
        #: our datalet on a different host — its failure is then *ours*
        #: to detect and report (the host-level heartbeat cannot).
        self.datalet_colocated = datalet_colocated
        self._datalet_strikes = 0
        self._datalet_reported = False
        #: replacement recovery: its source, the catch-up park, and the
        #: ``sync_pull`` handshake (it registers the handler).
        self._recovery = Recovery(self, recovery_source)
        self.recovered = recovery_source is None
        #: True when this controlet was re-spawned on its *old* host
        #: after a durable crash-restart (WAL recovery): it was a shard
        #: member once, so membership is *confirmed* rather than polled
        #: for — and if the coordinator already swept us, recovery is
        #: abandoned (a replacement pair owns the slot now).
        self.rejoining = rejoin
        #: every Pump this controlet drives, by name, and the pumps of
        #: each unit batches are reported in (:meth:`_pump`).
        self._pumps: Dict[str, Pump] = {}
        self._units: Dict[str, List[Pump]] = {}
        #: replicated datalet mutations, as ``(type, payload)``, waiting
        #: for the datalet in stream/log order (:meth:`_issue_apply`),
        #: and the snapshots peers pull, as ``("snapshot", {}, reply)``:
        #: one queued here covers every apply queued ahead of it.
        self._applies = Pump(self._issue_apply)
        self._pump("apply", self._applies)
        #: set once a transition replaced this controlet; all client ops
        #: are rejected with a ``retired`` error that carries the new
        #: epoch hint so clients refresh their map.
        self.retired = False
        #: highest cluster-map epoch whose shard view we installed; two
        #: config_update broadcasts sent back-to-back can reorder in
        #: flight, and adopting the older one would silently shrink our
        #: replica view (fan-out writers would skip the newest member).
        self._config_epoch = 0
        #: during a transition, client *writes* are forwarded here.
        self.forward_writes_to: Optional[str] = None
        #: cluster-view routing state, mirrored from the coordinator's
        #: :class:`~repro.cluster.view.ClusterView` broadcasts, and this
        #: controlet's side of every reshard: ownership fence, dirty
        #: marks, key migration (it serves ``reshard_migrate``,
        #: ``reshard_fence`` and ``migrate_put``).
        self._gate = ReshardParticipant(self)
        self._pump("copy", self._gate.copies)
        self.stats: Dict[str, int] = {
            "puts": 0, "gets": 0, "dels": 0, "scans": 0,
            "redirects": 0, "forwarded": 0, "errors": 0,
            "dup_writes": 0,
        }
        #: request-id dedup tables.  Clients stamp a per-operation
        #: ``req_id`` on mutations (RequestContext.req_id); a write that
        #: completed here is cached so a *client retry* of the same
        #: operation is answered from cache instead of re-executed —
        #: distinguishing retries from fabric duplicates.  These tables
        #: are excluded from model-checker handler summaries (see
        #: analysis/summaries.py IGNORED_ATTRS): checker clients never
        #: stamp rids, so the tables stay quiescent in explored runs.
        self._rid_done: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        self._rid_order: Deque[str] = deque(maxlen=RID_CACHE)
        self._rid_pending: Dict[str, List[Message]] = {}
        self.register("put", self._client_op)
        self.register("get", self._client_op)
        self.register("del", self._client_op)
        self.register("scan", self._client_op)
        self.register("config_update", self._on_config_update)
        self.register("transition_start", self._on_transition_start)
        self.register("retire", self._on_retire)
        self.register("ctl_stats", self._on_stats)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics_group(self) -> Dict[str, float]:
        """Live scrape source for the cluster metrics plane: the request
        counters plus, per pump unit, its batches and their items, so
        batching is observable without tracing."""
        out = {k: float(v) for k, v in self.stats.items()}
        for unit, pumps in self._units.items():
            batches = sum(p.batches for p in pumps)
            items = sum(p.items for p in pumps)
            out[f"{unit}s"] = float(batches)
            out[f"{unit}_ops"] = float(items)
            # >1.0 means the first unit's batches are coalescing
            out.setdefault("coalesce_ratio", items / batches if batches else 0.0)
        return out

    def _pump(self, name: str, pump: Pump, unit: Optional[str] = None) -> None:
        """Register ``pump``: its backlog and busy flag join the
        fingerprint under ``name``; with a ``unit`` it also counts
        toward ``<unit>s``/``<unit>_ops`` and feeds the
        ``batch.<unit>_size`` histogram."""
        self._pumps[name] = pump
        if unit is not None:
            self._units.setdefault(unit, []).append(pump)
            hist = f"batch.{unit}_size"

            def observe(n: int) -> None:
                if self._metrics is not None:
                    self._metrics.histogram(hist).observe(n)

            pump.observe = observe

    # ------------------------------------------------------------------
    # cost accounting
    # ------------------------------------------------------------------
    def service_demand(self, msg: Message, costs: Any) -> float:
        return costs.scaled("controlet_overhead")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        if self.rejoining:
            # recovered-but-stale state: fence client ops until the
            # coordinator confirms we are still a shard member
            self.retired = True
            self._recovery.confirm_membership()
        self._heartbeat(stagger=True)
        if not self.recovered:
            self._recovery.recover()

    def on_restart(self) -> None:
        """A crashed-and-revived controlet must *fence* itself: its role
        may have been repaired away while it was down (e.g. an ex-tail
        would serve stale strong reads).  Refuse client ops until the
        coordinator confirms we are still a shard member."""
        self.retired = True
        # In-flight executions (and their completion callbacks) died with
        # the crash: a rid left "pending" would absorb every retry of
        # that operation forever.  Drop the pending set — retries then
        # re-execute — but keep the completed-write cache, which is the
        # part that carries the exactly-once guarantee.
        self._rid_pending.clear()
        self._recovery.confirm_membership()
        self.on_start()

    def _tell_coordinators(self, type: str, payload: Dict[str, Any]) -> None:
        """Standby coordinators hear what the leader hears, so a
        follower promoted mid-failover owns fresh liveness data and can
        complete an in-flight repair instead of stranding it (§VII)."""
        for coord in [self.coordinator] + list(self.backup_coordinators):
            self.send(coord, type, dict(payload))

    def _heartbeat(self, stagger: bool = False) -> None:
        """LogHeartbeat(c, d) loop (paper Table III).

        The first beat fires immediately (the coordinator's failure
        clock starts at boot); ``stagger`` offsets the re-arm chain once
        so same-period loops on this node never share a timestamp.
        """
        self._tell_coordinators("heartbeat", {
            "controlet": self.node_id, "datalet": self.datalet,
            "shard": self.shard.shard_id,
        })
        delay = self.config.heartbeat_interval
        if stagger:
            delay += self.loop_phase("heartbeat", delay)
        self.set_timer(delay, self._heartbeat)

    # ------------------------------------------------------------------
    # recovery hooks (the handshake is :class:`~repro.core.recovery.Recovery`)
    # ------------------------------------------------------------------
    def sync_source(self, puller: str) -> Tuple[dict, Optional[Callable[[], None]]]:
        """Hook: arm any relay of later writes to ``puller``; return the
        cursor the snapshot covers, and the relay's ``undo`` (or None)."""
        return {}, None

    def on_sync_state(self, state: Dict[str, Any]) -> None:
        """Hook: adopt the protocol cursor a ``sync_state`` carries."""

    def on_caught_up(self) -> None:
        """Hook: the parked catch-up messages were replayed."""

    def _catch_up_later(self, msg: Message) -> None:
        """Mid-recovery: park ``msg`` for replay after the restore
        (:meth:`Recovery.park`), acking it if it is a request."""
        self._recovery.park(msg)
        self._ack_receipt(msg)

    def _ack_receipt(self, msg: Message) -> None:
        """Ack an accepted replication message unless it is a repair
        *response* fed back through a handler (``reply_to`` set)."""
        if not msg.reply_to:
            # Not the client commit point.  ms-ec acks at the master's
            # local apply, and a slave's frame ack is flow control the
            # master never reads as replicated.  ms-sc parks a frame
            # only mid-recovery, after the predecessor applied and
            # logged every member.  aa-sc's writer holds the DLM lock
            # until all replicas acked, so nothing overtakes a parked
            # peer_apply.  Parked messages replay after the restore.
            # lint: allow[ack-before-durable]
            self.respond(msg, "ok")

    # ------------------------------------------------------------------
    # shard-view helpers
    # ------------------------------------------------------------------
    @property
    def is_head(self) -> bool:
        return self.shard.head.controlet == self.node_id

    @property
    def is_tail(self) -> bool:
        return self.shard.tail.controlet == self.node_id

    def peers(self) -> List[Replica]:
        """Every replica in the shard except this one, in chain order."""
        return [r for r in self.shard.ordered() if r.controlet != self.node_id]

    def datalet_call(self, type: str, payload: Dict[str, Any],
                     callback: Optional[Callable] = None) -> None:
        """RPC to our datalet.

        A call to a *colocated* datalet skips the timeout timer: the
        pair shares a host, so the only way our datalet stops answering
        is the host dying — taking us with it.  Under split placement
        the call keeps the timeout, and repeated timeouts are reported
        to the coordinator as a ``datalet_failed`` event.
        """
        timeout = None
        if callback is not None and not self.datalet_colocated:
            inner = callback

            def watching(resp, err):
                self._note_datalet_result(err)
                inner(resp, err)

            callback, timeout = watching, self.config.replication_timeout
        self.call(self.datalet, type, payload, callback=callback, timeout=timeout)

    def _issue_apply(self, item: Tuple[Any, ...], done: Callable[[], None]) -> None:
        """One replicated mutation, or a peer's snapshot and its reply,
        in flight to the datalet: on the multi-slot CPU a later batch
        could finish first and apply out of order, diverging the replica."""
        type, payload, *reply = item

        def applied(resp: Optional[Message], err: Optional[BespoError]) -> None:
            done()
            for then in reply:
                then(resp, err)

        self.datalet_call(type, payload, callback=applied)

    def _note_datalet_result(self, err) -> None:
        if err is None:
            self._datalet_strikes = 0
            return
        self._datalet_strikes += 1
        if self._datalet_strikes >= 3 and not self._datalet_reported:
            self._datalet_reported = True
            self.send(
                self.coordinator,
                "datalet_failed",
                {"controlet": self.node_id, "datalet": self.datalet,
                 "shard": self.shard.shard_id},
            )

    def _ask_shard_info(self, target: str, on_info: Callable) -> None:
        self.call(
            target,
            "get_shard_info",
            {"shard": self.shard.shard_id},
            callback=on_info,
            timeout=self.config.replication_timeout,
        )

    def refresh_shard(self, then: Optional[Callable[[], None]] = None) -> None:
        """Re-fetch our shard's info from the coordinator (used when a
        chain peer stops responding mid-request)."""

        def on_info(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if resp is not None and resp.type == "shard_info":
                self._install_shard(
                    ShardInfo.from_dict(resp.payload["shard"]), resp.payload)
            if then is not None:
                then()

        self._ask_shard_info(self.coordinator, on_info)

    # ------------------------------------------------------------------
    # client-op entry: retirement / transition forwarding, then dispatch
    # ------------------------------------------------------------------
    def _client_op(self, msg: Message) -> None:
        if self.retired or not self.recovered:
            # not-yet-recovered replacements (visible to clients under
            # AA join-first) bounce ops the same way retired controlets
            # do: the client refreshes its map and retries elsewhere.
            self.stats["errors"] += 1
            self.respond(msg, "error", {"error": "retired"})
            return
        gate = self._gate
        if msg.type != "scan" and not gate.admit(msg):
            self.stats["errors"] += 1
            self.respond(msg, "error", {"error": "wrong_shard"})
            return
        if self.forward_writes_to is not None and msg.type in ("put", "del"):
            self._forward_write(msg)
            return
        if msg.type == "put":
            self.stats["puts"] += 1
            self.handle_put(msg)
        elif msg.type == "get":
            self.stats["gets"] += 1
            self.handle_get(msg)
        elif msg.type == "del":
            self.stats["dels"] += 1
            self.handle_del(msg)
        else:
            self.stats["scans"] += 1
            self.handle_scan(msg)

    def _forward_write(self, msg: Message) -> None:
        """Transition mode: relay the write to the new controlet and ack
        the client only once the new service has committed it
        (paper Fig 4)."""
        self.stats["forwarded"] += 1
        self.call(
            self.forward_writes_to,
            msg.type,
            dict(msg.payload),
            callback=lambda resp, err: self.respond(
                msg,
                resp.type if resp is not None else "error",
                dict(resp.payload) if resp is not None else {"error": str(err)},
            ),
            timeout=self.config.replication_timeout * 4,
        )

    # ------------------------------------------------------------------
    # request lifecycle: dedup gate + completion
    # ------------------------------------------------------------------
    def begin_write(self, msg: Message, op: str,
                    rid: Optional[str] = None) -> Optional[Request]:
        """Admit a write behind the request-id dedup gate.

        Returns a :class:`~repro.core.request.Request` to execute, or
        ``None`` when the operation was already handled here: a
        completed rid is answered from cache, an in-flight rid parks the
        duplicate message until the first execution completes.  Call
        *after* routing checks (redirect/retired) — a bounced attempt
        must not consume the rid.
        """
        if rid is None:
            ctx = msg.ctx
            if ctx is not None:
                rid = ctx.req_id
        if rid is None and msg.payload.get("mig"):
            # migration copies travel controlet→controlet without a
            # client request context; their rid rides in the payload so
            # FIFO retries of the same copy stay idempotent.
            rid = msg.payload.get("rid")
        if rid is None:
            return Request(self, msg, op)
        cached = self._rid_done.get(rid)
        if cached is not None:
            self.stats["dup_writes"] += 1
            self.respond(msg, cached[0], dict(cached[1]))
            return None
        waiters = self._rid_pending.get(rid)
        if waiters is not None:
            self.stats["dup_writes"] += 1
            waiters.append(msg)
            return None
        self._rid_pending[rid] = []
        return Request(self, msg, op, rid=rid, dedup=True)

    def _complete_request(self, req: Request, type: str,
                          payload: Dict[str, Any]) -> None:
        """Respond to the request's originator and settle dedup state.

        Successful completions are cached (client retries replay the
        answer) and parked duplicate attempts receive the same response.
        Errors clear the pending entry and *re-drive* any parked
        duplicates through dispatch: a retry must stay an independent
        execution, not inherit the first attempt's failure.  Re-driving
        cannot double-apply — every downstream receiver (chain members,
        EC slaves, the shared-log sequencer) gates on the same rid.
        """
        self.respond(req.msg, type, payload)
        if not req.dedup or req.rid is None:
            return
        waiters = self._rid_pending.pop(req.rid, ())
        if type != "error":
            self._remember_rid(req.rid, type, payload)
            for dup in waiters:
                self.respond(dup, type, dict(payload))
        else:
            for dup in waiters:
                self._redrive(dup)

    def _redrive(self, msg: Message) -> None:
        """Re-enter a parked duplicate through normal dispatch (under
        its own request context), as if it had just arrived."""
        handler = self._handlers.get(msg.type)
        if handler is None:
            self.on_unhandled(msg)
            return
        if msg.ctx is not None:
            prev = self._ctx_current
            self._ctx_current = msg.ctx
            try:
                handler(msg)
            finally:
                self._ctx_current = prev
        else:
            handler(msg)

    def _remember_rid(self, rid: str, type: str = "ok",
                      payload: Optional[Dict[str, Any]] = None) -> None:
        """Record a completed write's rid (bounded FIFO cache).

        Also used by replication receivers (chain members, EC slaves)
        that learn a rid from the protocol stream rather than from a
        client-facing completion.
        """
        if rid in self._rid_done:
            return
        if len(self._rid_order) == self._rid_order.maxlen:
            self._rid_done.pop(self._rid_order[0], None)
        self._rid_order.append(rid)
        self._rid_done[rid] = (type, payload if payload is not None else {})

    # -- subclass protocol hooks -------------------------------------------
    def handle_put(self, msg: Message) -> None:
        self._accept_write(msg, "put")

    def handle_del(self, msg: Message) -> None:
        self._accept_write(msg, "del")

    def _accept_write(self, msg: Message, op: str) -> None:
        """The protocol's write path: both mutations enter through it."""
        raise NotImplementedError

    def handle_get(self, msg: Message) -> None:
        """Default read path: serve from the local datalet."""
        self.datalet_call(
            "get",
            {"key": msg.payload["key"]},
            callback=lambda resp, err: self._relay(msg, resp, err),
        )

    def handle_scan(self, msg: Message) -> None:
        """Default scan path: local datalet (ordered engines only)."""
        self.datalet_call(
            "scan",
            {
                "start": msg.payload["start"],
                "end": msg.payload["end"],
                "limit": msg.payload.get("limit"),
            },
            callback=lambda resp, err: self._relay(msg, resp, err),
        )

    def _relay(self, client_msg: Message, resp: Optional[Message], err: Optional[BespoError]) -> None:
        """Forward a datalet response (or error) back to the client."""
        if err is not None or resp is None:
            self.stats["errors"] += 1
            self.respond(client_msg, "error", {"error": str(err) if err else "no response"})
            return
        self.respond(client_msg, resp.type, dict(resp.payload))

    def redirect(self, msg: Message, to: str, why: str) -> None:
        """Tell a (stale) client to retry against the right replica."""
        self.stats["redirects"] += 1
        self.respond(msg, "error", {"error": "redirect", "to": to, "why": why})

    # ------------------------------------------------------------------
    # reconfiguration & transitions
    # ------------------------------------------------------------------
    def _install_shard(self, shard: ShardInfo, info: Dict[str, Any]) -> bool:
        """Adopt a shard view — and the routing block of the same
        ``shard_info``/``config_update`` payload, so the ownership fence
        can never lag the membership it was published with — unless we
        already hold a newer one."""
        epoch = info.get("epoch")
        if epoch is not None:
            if epoch < self._config_epoch:
                return False
            self._config_epoch = epoch
        self.shard = shard
        if info.get("ring"):
            self._gate.install(info["ring"])
        return True

    def _on_config_update(self, msg: Message) -> None:
        new_shard = ShardInfo.from_dict(msg.payload["shard"])
        if new_shard.shard_id != self.shard.shard_id:
            return  # not ours; stale broadcast
        # (a reordered broadcast older than our current view is dropped)
        if self._install_shard(new_shard, msg.payload):
            self.on_shard_changed()

    def on_shard_changed(self) -> None:
        """Hook: the shard view changed (failover, replica added)."""

    def _on_transition_start(self, msg: Message) -> None:
        """An incoming transition: forward writes to the new service and
        start draining; report readiness when drained."""
        self.forward_writes_to = msg.payload["forward_to"]

        def ready() -> None:
            self.send(
                self.coordinator,
                "transition_ready",
                {"controlet": self.node_id, "shard": self.shard.shard_id},
            )

        self.prepare_retirement(ready)

    def prepare_retirement(self, done: Callable[[], None]) -> None:
        """Drain protocol state built up before the transition; call
        ``done`` when the new controlets can take over.  Default: ready
        immediately (nothing buffered)."""
        done()

    def _on_retire(self, msg: Message) -> None:
        self.retired = True
        self.respond(msg, "ok")

    def _on_stats(self, msg: Message) -> None:
        self.respond(msg, "ctl_stats", {k: float(v) for k, v in self.stats.items()})

    # ------------------------------------------------------------------
    # online resharding: the combo's steps of the reshard participant
    # ------------------------------------------------------------------
    def _migrate_barrier(self, then: Callable[[], None]) -> None:
        """Hook: wait until every write admitted *before* the window
        opened is applied to the local engine, so the census read sees
        it.  Default: nothing buffers ahead of the engine — proceed
        immediately.  Combos with an accept queue / replication backlog
        override this (writes admitted *during* the window are covered
        by the destination's dirty marks instead)."""
        then()

    def _after_drain(self, pump: Pump, then: Callable[[], None]) -> None:
        """``then()`` once ``pump`` is idle and empty, polled every 50 ms."""
        if pump.busy or pump.queue:
            self.set_timer(0.05, lambda: self._after_drain(pump, then))
            return
        then()

    def _migrate_copy(self, key: str, complete: Callable[[str], None]) -> None:
        """Hook: copy one key to its new-ring owner and ``complete`` with
        ``moved``, ``skipped`` or ``retry``.  Default: read the local
        engine, ship a rid-stamped idempotent ``migrate_put`` to the
        destination shard's entry controlet.  Combos with an external
        ordering authority override this (AA+SC locks the key first;
        AA+EC appends to the destination's shared log instead)."""
        dest = self._gate.dest(key)
        if dest is None:
            complete("skipped")
        else:
            self._read_for_copy(key, complete, lambda val: self._ship_copy(
                key, val, dest, "migrate_put", complete))

    def _read_for_copy(self, key: str, complete: Callable[[str], None],
                       ship: Callable[[str], None]) -> None:
        """``ship`` the local engine's value of ``key``; an unreachable
        datalet is a ``retry``, a key deleted at the source ``skipped``."""

        def have(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None:
                complete("retry")
            elif resp.type != "value":
                complete("skipped")
            else:
                ship(resp.payload["val"])

        self.datalet_call("get", {"key": key}, callback=have)

    def _ship_copy(self, key: str, val: str, dest: str, type: str,
                   complete: Callable[[str], None], **extra: Any) -> None:
        """Send one rid-stamped ``type`` copy of ``key`` to ``dest``;
        retries reuse the same rid so the destination's dedup gate
        keeps them exactly-once."""
        desc = self._gate.window
        if desc is None:
            complete("skipped")
            return

        def acked(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None or resp.type == "error":
                complete("retry")
            else:
                complete("skipped" if resp.payload.get("skipped") else "moved")

        self.call(
            dest,
            type,
            {"key": key, "val": val, "gen": desc["gen"],
             "rid": f"mig.g{desc['gen']}.{key}", "mig": True, **extra},
            callback=acked,
            timeout=self.config.replication_timeout,
        )

    def _admit_migrate(self, msg: Message) -> None:
        """Hook: run a clean migrated copy through the combo's write
        path (idempotent under the in-band rid; see
        :meth:`begin_write`).  AA+SC overrides — the source already
        holds the cluster-wide lock, so its fan-out must not try to
        re-acquire it."""
        self.handle_put(msg)


class MasterSlaveControlet(Controlet):
    """Master-side accept path shared by the two MS controlets.

    Client writes enter at the shard head and are applied to its
    datalet one coalesced ``apply_batch`` at a time.  Per-op datalet
    calls are not enough: response arrival order is jittered, so the
    order writes enter replication (response order) could invert the
    order the head's datalet applied them — the head would then
    permanently disagree with its own followers on racing same-key
    writes.  One batch in flight pins acceptance order = head apply
    order = replication order, and amortizes the head's WAL fsync (one
    commit group per batch).  What happens to a member whose local apply
    succeeded is the protocol: :meth:`_forward_down`.
    """

    #: name of the :class:`ControlConfig` cap on one accept batch.
    accept_cap = ""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: head-accepted client writes awaiting their local apply, in
        #: acceptance order (:meth:`_issue_accept`).
        self._accepts = Pump(self._issue_accept,
                             cap=getattr(self.config, self.accept_cap))
        self._pump("accept", self._accepts)

    def _accept_write(self, msg: Message, op: str) -> None:
        if not self.is_head:
            self.redirect(msg, self.shard.head.controlet,
                          "writes enter at the shard head")
            return
        req = self.begin_write(msg, op)
        if req is not None:  # else: duplicate of a completed/in-flight rid
            self._accepts.push(req)

    def _issue_accept(self, batch: List[Request], done: Callable[[], None]) -> None:
        ops = [{"op": r.op, "key": r.msg.payload["key"],
                "val": r.msg.payload.get("val")} for r in batch]

        def after_local(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is not None or resp is None or resp.type == "error":
                self.stats["errors"] += len(batch)
                for req in batch:
                    req.fail(f"local datalet write failed: {err}")
            else:
                results = resp.payload.get("results") or ["ok"] * len(batch)
                for req, status in zip(batch, results):
                    if status != "ok":
                        # e.g. delete of a missing key: nothing applied,
                        # so nothing replicates for this member.
                        req.finish("error", {"error": status,
                                             "key": req.msg.payload["key"]})
                    else:
                        self._forward_down(req)
            done()

        self.datalet_call("apply_batch", {"ops": ops, "want_results": True},
                          callback=after_local)

    def _forward_down(self, req: Request) -> None:
        """Protocol hook: ``req`` is applied at the head — replicate it
        and complete it at the combo's commit point."""
        raise NotImplementedError

    def _migrate_barrier(self, then: Callable[[], None]) -> None:
        """Reshard census barrier: writes admitted before the window
        opened may still sit in the accept queue ahead of the head's
        engine — wait for one observed drain so the census (which reads
        the head's engine, the shard's write authority) sees them.
        Writes admitted *during* the window are dual-routed, so the
        destination's dirty marks cover them instead."""
        self._after_drain(self._accepts, then)
