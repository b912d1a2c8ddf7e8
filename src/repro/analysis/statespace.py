"""Controlled-schedule cluster for the small-scope model checker.

:mod:`repro.analysis.explore` needs to run the *real* controlet,
coordinator, DLM, shared-log and datalet code while owning every source
of nondeterminism.  This module provides the substrate:

* :class:`CheckerCluster` — a :class:`~repro.net.simnet.SimCluster`
  whose :meth:`route` has two modes.  During **boot** messages deliver
  immediately (zero latency, FIFO) so the cluster reaches its steady
  state deterministically.  In **controlled** mode every cross-host
  message parks in :attr:`CheckerCluster.pending` — a visible choice
  point — while intra-host traffic (the paper's colocated
  controlet/datalet pair) short-circuits synchronously, which keeps
  local engine calls out of the interleaving space.
* :class:`CheckerClient` — a deterministic scripted client actor that
  issues a fixed op list sequentially, retries on timeout/redirect/
  retired, and records every invocation into a
  :class:`~repro.chaos.history.HistoryRecorder` for the PR-1 oracles.
* :class:`CheckerRun` — one rooted execution: boot, then a sequence of
  *transitions* (deliver pending message #i / advance virtual time by
  one kernel event / crash a data host / restart a crashed host through
  the real ``Deployment.recover_host`` WAL replay), each enumerated
  deterministically so a run is replayable from its decision indices
  alone.
* :func:`CheckerRun.fingerprint` — the state abstraction: canonical
  digest over every actor's :meth:`~repro.net.actor.Actor.snapshot_state`,
  the in-flight message multiset (content-based, never msg_ids — the
  global id counter diverges across replayed branches), armed-timer
  labels with deadline offsets, host liveness and the remaining fault
  budget.  Periodic timers show up as relative deadlines, so an idle
  cluster cycles back to a seen fingerprint and exploration closes.
  With durable scenarios the digest also folds every host's
  :class:`~repro.sim.durable.DurableStore` — per-file content and fsync
  watermark — plus the restart budget and recovery provenance: two
  interleavings that differ only in what survived on disk must never
  merge, because their recoveries differ.

Channel abstraction: identical in-flight non-reply messages coalesce
(at most one copy of each (src, dst, type, payload) is pending at a
time).  Without this, an undelivered heartbeat stream would grow the
in-flight multiset forever and no fixpoint would exist.  Coalescing is
equivalent to the channel dropping a duplicate — a legal behaviour of
the lossy networks these protocols already tolerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.history import HistoryRecorder
from repro.chaos.oracle import RecoveryRecord
from repro.core.config import ControlConfig
from repro.core.ms_sc import MSStrongControlet
from repro.core.types import Consistency, Topology
from repro.errors import BespoError
from repro.harness.deploy import Deployment, DeploymentSpec
from repro.net.actor import Actor
from repro.net.message import Message
from repro.net.sanitize import canonical_digest
from repro.net.simnet import SimCluster

__all__ = [
    "CheckScenario",
    "CheckerClient",
    "CheckerCluster",
    "CheckerRun",
    "EarlyAckMSStrongControlet",
    "EnabledEvent",
    "INJECTIONS",
    "PartialBatchAckMSStrongControlet",
    "UnsyncedAckMSStrongControlet",
    "parse_combo",
]

_COMBOS = {
    "ms-sc": (Topology.MS, Consistency.STRONG),
    "ms-ec": (Topology.MS, Consistency.EVENTUAL),
    "aa-sc": (Topology.AA, Consistency.STRONG),
    "aa-ec": (Topology.AA, Consistency.EVENTUAL),
}


def parse_combo(name: str) -> Tuple[Topology, Consistency]:
    try:
        return _COMBOS[name]
    except KeyError:
        raise BespoError(
            f"unknown combo {name!r} (expected one of {sorted(_COMBOS)})"
        ) from None


# ---------------------------------------------------------------------------
# seeded defects (for validating that the checker actually finds bugs)
# ---------------------------------------------------------------------------
class EarlyAckMSStrongControlet(MSStrongControlet):
    """Known-bad build: the chain head acknowledges the client right
    after its *local* apply, before the tail has committed.

    The write then races the strong read: a ``get`` delivered to the
    tail before the in-flight chain frame observes the pre-write value
    of a key the client already saw acked — a linearizability violation
    the checker must find (and a head crash loses the acked write
    entirely).  Inject via ``CheckScenario(inject="early-ack")``.
    """

    def _forward_down(self, req) -> None:
        if not self.is_head:
            super()._forward_down(req)
            return
        try:
            succ = self.shard.successor(self.node_id)
        except Exception:  # noqa: BLE001 - repaired out of our own view
            succ = None
        req.ack()  # BUG: ack precedes downstream commit
        if succ is not None:
            self.send(
                succ.controlet,
                "chain_put_batch",
                {"entries": [{"op": req.op, "key": req.msg.payload["key"],
                              "val": req.msg.payload.get("val")}]},
            )


class UnsyncedAckMSStrongControlet(MSStrongControlet):
    """Known-bad build: every chain member *defers* its local durable
    apply onto a timer and continues down the chain (acking, at the
    tail) immediately — the ack-before-durable bug class the commit
    point analyzer exists for.

    Under the colocated controlet/datalet pairing the apply would
    otherwise land synchronously within the same transition, so the
    timer is what opens the cross-step window: crash the host after the
    ack but before its timer fires and the acked write was never
    logged, so WAL replay cannot bring it back.  With ``ms-sc``'s
    ``ack_durable`` contract that is a durability-floor violation the
    recovery-aware checker must find (and statically, the tail ack has
    no durable effect ahead of it — only a deferred one).  Inject via
    ``CheckScenario(inject="unsynced-ack")``.
    """

    def datalet_call(self, type, payload, callback=None, datalet=None):
        if type != "apply_batch":
            super().datalet_call(type, payload, callback=callback,
                                 datalet=datalet)
            return
        # BUG: the coalesced frame's durable apply rides a timer while a
        # forged success resumes the pump immediately, so every member
        # continues down the chain (and the tail acks) before anything
        # was logged here — the batched shape of the same defect.
        issue = super().datalet_call
        self.set_timer(0.01, lambda: issue(type, payload))
        if callback is not None:
            ops = payload["ops"]
            forged = Message(type="ok", payload={
                "applied": len(ops), "results": ["ok"] * len(ops),
            })
            callback(forged, None)


class PartialBatchAckMSStrongControlet(MSStrongControlet):
    """Known-bad build: the head acknowledges a batch member as soon as
    its *local* apply lands, detaching the ack from the coalesced
    ``chain_put_batch`` frame that is supposed to carry it down the
    chain — the batching bug class where an ack outruns its own frame.

    The entry still rides the link pump, but the completion callback is
    severed (frame errors are swallowed too), so the client sees "ok"
    while the suffix may not have committed: a strong read at the tail
    returns the pre-write value of an acked key, and a head crash before
    the frame drains loses the acked write.  Both the chaos/linearizability
    oracle (dynamically) and the commit-point analyzer (statically: the
    ack does not await the ``enqueue_down`` replication effect) must
    flag it.  Inject via ``CheckScenario(inject="partial-batch-ack")``.
    """

    def _forward_down(self, req) -> None:
        if not self.is_head:
            super()._forward_down(req)
            return
        entry: Dict[str, Any] = {"op": req.op, "key": req.msg.payload["key"],
                                 "val": req.msg.payload.get("val")}
        if req.rid is not None:
            entry["rid"] = req.rid
        req.ack()  # BUG: batch member acked before its frame commits
        self._enqueue_down(entry, lambda err: None)


INJECTIONS: Dict[str, type] = {
    "early-ack": EarlyAckMSStrongControlet,
    "unsynced-ack": UnsyncedAckMSStrongControlet,
    "partial-batch-ack": PartialBatchAckMSStrongControlet,
}


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------
@dataclass
class CheckScenario:
    """Scope bounds for one exhaustive exploration."""

    combo: str = "ms-sc"
    nodes: int = 2          # replicas in the (single) shard
    clients: int = 1
    ops_per_client: int = 3
    crashes: int = 1        # fault budget (host crashes)
    #: crash-*restart* budget: a crashed data host may be brought back
    #: through the real ``Deployment.recover_host`` (WAL replay +
    #: rejoin) as an explored transition.  Requires ``durable``.
    restarts: int = 0
    #: run with a durable WAL under every datalet (crash damage then
    #: follows ``durable_loss``; recovery replays the synced prefix).
    durable: bool = False
    #: fsync cadence of those WALs (1 = every append, the synced-acks
    #: regime; >1 = group commit, where MS+EC legally loses acked tails).
    wal_sync_every: int = 1
    #: crash damage policy for unsynced bytes.  Default "all" (drop the
    #: whole unsynced suffix): the deterministic worst case, so
    #: counterexamples never hinge on torn-tail RNG draws.
    durable_loss: str = "all"
    seed: int = 0
    boot_time: float = 0.5
    op_timeout: float = 3.0
    max_attempts: int = 4
    #: scope bound on "advance virtual time" transitions per path.  Like
    #: the crash budget, this is part of the scenario's *scope*, not a
    #: truncation: timer-driven behaviour (timeouts, failure detection,
    #: EC batch flushes) is explored up to this many kernel events deep.
    #: Without it, adversarial schedules that park a heartbeat while
    #: time advances reach failure-detection subtrees from every state
    #: and no small scenario closes.
    advance_budget: int = 40
    #: maximal-progress semantics: time may only advance once no
    #: delivery is pending ("the network is prompt relative to every
    #: timeout").  Message *reorderings* are still exhaustive, and
    #: permanent message loss is covered by crash faults; what this
    #: scopes out is transient-delay races (a heartbeat parked past the
    #: failure timeout, a reply racing its own timeout).  Turning it off
    #: interleaves every timer fire with every pending delivery — only
    #: tractable for the smallest scenarios.
    eager_network: bool = True
    #: named seeded defect from :data:`INJECTIONS` (None = real build).
    inject: Optional[str] = None
    coalesce_inflight: bool = True

    @property
    def topology(self) -> Topology:
        return parse_combo(self.combo)[0]

    @property
    def consistency(self) -> Consistency:
        return parse_combo(self.combo)[1]

    def label(self) -> str:
        tag = f"+{self.inject}" if self.inject else ""
        extra = ""
        if self.durable:
            extra = (
                f" restarts={self.restarts}"
                f" wal_sync_every={self.wal_sync_every}"
            )
        return (
            f"{self.combo}{tag} nodes={self.nodes} clients={self.clients} "
            f"ops={self.ops_per_client} crashes={self.crashes}{extra} "
            f"seed={self.seed}"
        )

    def ops_for(self, client_index: int) -> List[Tuple[str, str, Optional[str]]]:
        """Deterministic per-client script: writes and reads alternate on
        one shared key, so clients actually contend."""
        ops: List[Tuple[str, str, Optional[str]]] = []
        for j in range(self.ops_per_client):
            if j % 2 == 0:
                ops.append(("put", "x", f"c{client_index}.v{j}"))
            else:
                ops.append(("get", "x", None))
        return ops

    def control_config(self) -> ControlConfig:
        # Shrink failure detection so crash/failover subtrees stay
        # shallow, and widen the EC batching/fetch ticks: at the default
        # 10ms every advance-transition chain would wade through dozens
        # of no-op flush ticks per protocol step.
        return ControlConfig(
            failure_timeout=2.0,
            ec_batch_interval=0.25,
            log_fetch_interval=0.25,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "combo": self.combo,
            "nodes": self.nodes,
            "clients": self.clients,
            "ops_per_client": self.ops_per_client,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "durable": self.durable,
            "wal_sync_every": self.wal_sync_every,
            "durable_loss": self.durable_loss,
            "seed": self.seed,
            "boot_time": self.boot_time,
            "op_timeout": self.op_timeout,
            "max_attempts": self.max_attempts,
            "advance_budget": self.advance_budget,
            "eager_network": self.eager_network,
            "inject": self.inject,
            "coalesce_inflight": self.coalesce_inflight,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CheckScenario":
        return cls(**{k: d[k] for k in cls().to_dict() if k in d})


# ---------------------------------------------------------------------------
# controlled transport
# ---------------------------------------------------------------------------
class CheckerCluster(SimCluster):
    """SimCluster whose cross-host deliveries are explorer choice points."""

    def __init__(self, *args, coalesce: bool = True, **kwargs):
        super().__init__(*args, **kwargs)
        self.controlled = False
        #: cross-host messages awaiting an explorer decision, send order.
        self.pending: List[Message] = []
        self.coalesce = coalesce
        self.dropped_dead = 0
        self.coalesced = 0
        self.local_deliveries = 0

    @staticmethod
    def signature(msg: Message) -> Tuple[str, str, str, str, bool]:
        """Content identity of an in-flight message (no msg_ids: the
        global id counter diverges across replayed branches)."""
        sig = getattr(msg, "_chk_sig", None)
        if sig is None:
            sig = (
                msg.src,
                msg.dst,
                msg.type,
                canonical_digest(msg.payload),
                bool(msg.reply_to),
            )
            msg._chk_sig = sig  # type: ignore[attr-defined]
        return sig

    def route(self, msg: Message) -> None:
        dst_actor = self._actors.get(msg.dst)
        if dst_actor is None:
            return  # unknown destination == dead peer: silent drop
        dst_host = self._actor_host[msg.dst]
        if not dst_actor.alive or self.network.is_dead(dst_host):
            self.dropped_dead += 1
            return
        if self.sanitizer is not None:
            self.sanitizer.on_send(msg)
        if not self.controlled:
            # boot phase: immediate FIFO delivery, zero latency
            self.sim.call_soon(self._deliver_now, msg)
            return
        src_host = self._actor_host.get(msg.src)
        if src_host is not None and src_host == dst_host:
            # colocated pair: a local engine call, not an interleaving
            self.local_deliveries += 1
            self._deliver_now(msg)
            return
        if self.coalesce and not msg.reply_to:
            sig = self.signature(msg)
            for queued in self.pending:
                if not queued.reply_to and self.signature(queued) == sig:
                    self.coalesced += 1
                    return
        self.pending.append(msg)

    def _deliver_now(self, msg: Message) -> None:
        dst_actor = self._actors.get(msg.dst)
        if (
            dst_actor is None
            or not dst_actor.alive
            or self.network.is_dead(self._actor_host[msg.dst])
        ):
            self.dropped_dead += 1
            return
        if self.sanitizer is not None:
            self.sanitizer.on_deliver(msg)
        dst_actor.deliver(msg)

    def deliver_pending(self, index: int) -> Message:
        msg = self.pending.pop(index)
        self._deliver_now(msg)
        return msg

    def crash_host(self, host: str) -> None:
        """Crash transition: kill the host, then drop queued messages
        whose destination died with it (they could never be delivered)."""
        self.kill_host(host)
        kept: List[Message] = []
        for msg in self.pending:
            actor = self._actors.get(msg.dst)
            if (
                actor is None
                or not actor.alive
                or self.network.is_dead(self._actor_host[msg.dst])
            ):
                self.dropped_dead += 1
                continue
            kept.append(msg)
        self.pending = kept


# ---------------------------------------------------------------------------
# scripted client
# ---------------------------------------------------------------------------
class CheckerClient(Actor):
    """Deterministic sequential client for checker scenarios.

    Routing reads the coordinator's **authoritative** map directly — a
    documented shortcut: the real client's map-refresh protocol is
    itself message-driven, and modeling it would square the state space
    for no extra protocol coverage (stale-routing behaviour is still
    exercised through ``redirect``/``retired`` responses, which the
    controlets emit regardless of how the client found them).
    """

    def __init__(
        self,
        node_id: str,
        deployment: Deployment,
        ops: List[Tuple[str, str, Optional[str]]],
        recorder: HistoryRecorder,
        op_timeout: float = 3.0,
        max_attempts: int = 4,
        pick: int = 0,
    ):
        super().__init__(node_id)
        self.dep = deployment
        self.ops = list(ops)
        self.recorder = recorder
        self.op_timeout = op_timeout
        self.max_attempts = max_attempts
        self.pick = pick  # spreads AA clients across replicas
        self.cursor = 0
        self.attempts = 0
        self._redirect: Optional[str] = None
        self._rec = None
        self.results: List[Tuple] = []

    # -- script driver --------------------------------------------------
    def kick(self) -> None:
        self._next_op()

    @property
    def done(self) -> bool:
        return self.cursor >= len(self.ops)

    def _next_op(self) -> None:
        if self.done:
            return
        op, key, val = self.ops[self.cursor]
        self._rec = self.recorder.invoke(self.node_id, op, key, val)
        self.attempts = 0
        self._attempt()

    def _finish(self, status: str, result: Optional[str] = None,
                error: Optional[str] = None) -> None:
        self.recorder.complete(
            self._rec, status, value=result, error=error, attempts=self.attempts
        )
        op, key, val = self.ops[self.cursor]
        self.results.append((op, key, val, status, result))
        self.cursor += 1
        self._rec = None
        self._next_op()

    def _target(self, op: str) -> Optional[str]:
        if self._redirect is not None:
            target, self._redirect = self._redirect, None
            return target
        cmap = self.dep.coordinator.map
        sid = sorted(cmap.shards)[0]
        shard = cmap.shards[sid]
        replicas = shard.ordered()
        if not replicas:
            return None
        if shard.topology is Topology.AA:
            return replicas[self.pick % len(replicas)].controlet
        if op in ("put", "del"):
            return replicas[0].controlet  # chain head / master
        return replicas[-1].controlet  # tail (strong reads; EC: any)

    def _attempt(self) -> None:
        op, key, val = self.ops[self.cursor]
        self.attempts += 1
        if self.attempts > self.max_attempts:
            self._finish("fail", error="retries exhausted")
            return
        target = self._target(op)
        if target is None:
            self._finish("fail", error="no replicas")
            return
        payload: Dict[str, Any] = {"key": key}
        if op == "put":
            payload["val"] = val
        self.call(target, op, payload, callback=self._on_resp,
                  timeout=self.op_timeout)

    def _on_resp(self, resp: Optional[Message], err) -> None:
        if err is not None:  # timeout: immediate bounded retry
            self._attempt()
            return
        if resp.type == "error":
            error = resp.payload.get("error", "")
            if error == "not_found":
                self._finish("not_found")
                return
            if error == "redirect":
                self._redirect = resp.payload.get("to")
                self._attempt()
                return
            self._attempt()  # retired / transient: bounded retry
            return
        op = self.ops[self.cursor][0]
        self._finish("ok", result=resp.payload.get("val") if op == "get" else None)

    # -- introspection ---------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        s = super().snapshot_state()
        s.update({
            "cursor": self.cursor,
            "attempts": self.attempts,
            "redirect": self._redirect,
            # completed-op observations ARE history: two states that
            # differ only in what a client already saw must not merge
            "results": [list(r) for r in self.results],
        })
        return s


# ---------------------------------------------------------------------------
# one rooted execution
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EnabledEvent:
    """One transition the explorer may take from the current state."""

    kind: str          # "deliver" | "advance" | "crash" | "restart"
    index: int         # pending-list index for deliver; -1 otherwise
    key: Tuple         # canonical identity (stable across replays)
    describe: str


class CheckerRun:
    """Boot a scenario, then drive it transition by transition."""

    def __init__(self, scenario: CheckScenario):
        self.scenario = scenario
        inject_cls = INJECTIONS.get(scenario.inject) if scenario.inject else None
        if scenario.inject and inject_cls is None:
            raise BespoError(
                f"unknown injection {scenario.inject!r} (have {sorted(INJECTIONS)})"
            )
        if scenario.restarts and not scenario.durable:
            raise BespoError(
                "restart transitions need durable=True: recovery replays "
                "the WAL, and without one there is nothing to recover from"
            )
        spec = DeploymentSpec(
            shards=1,
            replicas=scenario.nodes,
            topology=scenario.topology,
            consistency=scenario.consistency,
            standbys=1,
            seed=scenario.seed,
            control=scenario.control_config(),
            controlet_class=inject_cls,
            durable=scenario.durable,
            wal_sync_every=scenario.wal_sync_every,
            durable_loss=scenario.durable_loss,
        )
        self.cluster = CheckerCluster(
            seed=scenario.seed, coalesce=scenario.coalesce_inflight
        )
        # every explored delivery is copy-on-send checked and frozen
        self.cluster.attach_sanitizer()
        self.dep = Deployment(spec, cluster=self.cluster)
        self.sim = self.cluster.sim
        self.recorder = HistoryRecorder(self.sim)
        self.clients: List[CheckerClient] = []
        for ci in range(scenario.clients):
            name = f"chk.client{ci}"
            self.cluster.add_host(name, cpus=1, free=True)
            client = CheckerClient(
                name,
                self.dep,
                scenario.ops_for(ci),
                self.recorder,
                op_timeout=scenario.op_timeout,
                max_attempts=scenario.max_attempts,
                pick=ci,
            )
            self.cluster.add_actor(client, host=name)
            self.clients.append(client)
        self.crash_budget = scenario.crashes
        self.restart_budget = scenario.restarts
        self.advances_left = scenario.advance_budget
        #: provenance of every recover_host run on this path, in
        #: transition order — the recovery oracle's input.
        self.recoveries: List[RecoveryRecord] = []
        self.steps = 0

    # -- lifecycle -------------------------------------------------------
    def boot(self) -> None:
        self.dep.start()
        self.sim.run_until(self.scenario.boot_time)
        self.cluster.controlled = True
        for client in self.clients:
            client.kick()

    def clients_done(self) -> bool:
        return all(c.done for c in self.clients)

    def done_and_quiet(self) -> bool:
        return self.clients_done() and not self.cluster.pending

    # -- transitions -----------------------------------------------------
    def data_hosts(self) -> List[str]:
        hosts = set()
        for sid in sorted(self.dep.map.shards):
            for replica in self.dep.map.shards[sid].ordered():
                hosts.add(replica.host)
        return sorted(h for h in hosts if self.cluster.is_host_alive(h))

    def crashed_data_hosts(self) -> List[str]:
        """Crashed hosts that still own a shard slot — restart targets.
        Keyed off the deployment's host→replica pairing rather than the
        current map, so a host repaired *out* of the shard (standby
        promotion) can still power back on and attempt a rejoin."""
        return sorted(
            h for h in self.dep._host_pairs
            if not self.cluster.is_host_alive(h)
        )

    def enabled(self) -> List[EnabledEvent]:
        events: List[EnabledEvent] = []
        occurrences: Dict[Tuple, int] = {}
        for i, msg in enumerate(self.cluster.pending):
            sig = CheckerCluster.signature(msg)
            occ = occurrences.get(sig, 0)
            occurrences[sig] = occ + 1
            events.append(EnabledEvent(
                kind="deliver",
                index=i,
                key=("deliver",) + sig + (occ,),
                describe=f"deliver {msg.type} {msg.src}->{msg.dst}",
            ))
        # advance is in scope only while ops are in flight (completed
        # histories are judged as-is; EC convergence free-runs timers in
        # the quiesce suffix), while the advance budget lasts, and —
        # under maximal progress — only once the network is drained
        if (
            self.advances_left > 0
            and not self.clients_done()
            and not (self.scenario.eager_network and self.cluster.pending)
        ):
            armed = self.sim.armed_events()
            if armed:
                when, label = armed[0]
                events.append(EnabledEvent(
                    kind="advance",
                    index=-1,
                    key=("advance", label, round(when, 9)),
                    describe=f"advance to t={when:.3f} ({label})",
                ))
        # crashes only while ops are in flight: an idle-cluster crash
        # cannot invalidate an already-recorded history (documented
        # reduction; EC convergence is checked via the quiesce suffix)
        if self.crash_budget > 0 and not self.clients_done():
            for host in self.data_hosts():
                events.append(EnabledEvent(
                    kind="crash",
                    index=-1,
                    key=("crash", host),
                    describe=f"crash {host}",
                ))
        # restarts stay enabled *after* the history completes (unlike
        # crashes): a post-history recovery still changes the final
        # durable state the recovery oracle judges — lost-everywhere vs
        # caught-up-from-a-live-peer are different verdicts.
        if self.restart_budget > 0:
            for host in self.crashed_data_hosts():
                events.append(EnabledEvent(
                    kind="restart",
                    index=-1,
                    key=("restart", host),
                    describe=f"restart {host}",
                ))
        return events

    def execute(self, event: EnabledEvent) -> None:
        self.steps += 1
        if event.kind == "deliver":
            self.cluster.deliver_pending(event.index)
        elif event.kind == "advance":
            self.advances_left -= 1
            self.sim.step_one()
        elif event.kind == "crash":
            self.crash_budget -= 1
            self.cluster.crash_host(event.key[1])
        elif event.kind == "restart":
            self.restart_budget -= 1
            record = self.dep.recover_host(event.key[1])
            if record is not None:
                self.recoveries.append(record)
            # Drain the zero-time respawn cascade (on_restart hooks,
            # actor start callbacks scheduled via call_soon) atomically
            # with the transition; messages it sends park in pending as
            # usual, and later-deadline timers stay armed.
            self.sim.run_until(self.sim.now)
        else:  # pragma: no cover - enum guarded above
            raise BespoError(f"unknown transition kind {event.kind!r}")

    def apply_choice(self, choice: int) -> EnabledEvent:
        events = self.enabled()
        if not 0 <= choice < len(events):
            raise BespoError(
                f"replay divergence: choice {choice} but only "
                f"{len(events)} events enabled at step {self.steps}"
            )
        event = events[choice]
        self.execute(event)
        return event

    # -- state abstraction ------------------------------------------------
    def fingerprint(self) -> str:
        actors: Dict[str, Any] = {}
        dead: List[str] = []
        for nid in sorted(self.cluster._actors):
            actor = self.cluster._actors[nid]
            if actor.alive:
                actors[nid] = actor.snapshot_state()
            else:
                dead.append(nid)
        now = self.sim.now
        state = {
            "actors": actors,
            "dead": dead,
            "down_hosts": sorted(
                h for h in self.cluster.hosts()
                if not self.cluster.is_host_alive(h)
            ),
            "pending": sorted(
                CheckerCluster.signature(m) for m in self.cluster.pending
            ),
            "timers": [
                (label, round(when - now, 6))
                for when, label in self.sim.armed_events()
            ],
            "crash_budget": self.crash_budget,
            # remaining budgets are part of the state: a state reached
            # with more budget left has strictly more futures, so it must
            # not be pruned against a lower-budget visit
            "advances_left": self.advances_left,
            "restarts_left": self.restart_budget,
            # what survived on disk: per host, each durable file's full
            # content plus its fsync watermark.  Interleavings that agree
            # on actor state but differ in synced prefixes have different
            # recoveries ahead of them and must not merge.
            "durable": {
                host: {
                    name: (
                        self.cluster._durable[host].file(name).read().hex(),
                        self.cluster._durable[host].file(name).synced_size,
                    )
                    for name in self.cluster._durable[host].files()
                }
                for host in sorted(self.cluster._durable)
            },
            # recovery provenance already accrued on this path: the
            # per-recovery oracle checks (floor, validity, resurrection)
            # read it at the leaf, so it is part of the judged state
            "recoveries": [
                (
                    r.host,
                    r.durable_seq_at_crash,
                    r.replayed_seq,
                    sorted(r.recovered.items()),
                )
                for r in self.recoveries
            ],
        }
        return canonical_digest(state)

    # -- invariants --------------------------------------------------------
    def invariant_violation(self) -> Optional[str]:
        """Structural checks valid in every state."""
        for nid in sorted(self.cluster._actors):
            actor = self.cluster._actors[nid]
            if not actor.alive:
                continue
            for msg_id, has_timer, armed in actor.pending_introspect():
                if has_timer and not armed:
                    return (
                        f"orphaned pending call on {nid} (msg_id {msg_id}): "
                        "timeout timer cancelled but continuation still "
                        "registered — it can never resolve"
                    )
        return None

    def replica_dumps(self) -> Dict[str, Dict[str, Dict[str, str]]]:
        dumps: Dict[str, Dict[str, Dict[str, str]]] = {}
        for sid in sorted(self.dep.map.shards):
            shard_dump: Dict[str, Dict[str, str]] = {}
            for replica in self.dep.map.shards[sid].ordered():
                actor = self.cluster._actors.get(replica.datalet)
                if actor is None or not actor.alive:
                    continue
                shard_dump[replica.datalet] = dict(actor.engine.snapshot())
            dumps[sid] = shard_dump
        return dumps

    def quiesce(self, duration: float) -> None:
        """Deterministic no-choice suffix: release every parked message
        FIFO and let timers run for ``duration`` sim-seconds — the model
        checker's version of the chaos harness's post-fault quiesce
        window, used before EC convergence checks."""
        self.cluster.controlled = False
        parked, self.cluster.pending = self.cluster.pending, []
        for msg in parked:
            self.sim.call_soon(self.cluster._deliver_now, msg)
        self.sim.run_until(self.sim.now + duration)
