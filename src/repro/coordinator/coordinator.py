"""The coordinator actor.

Responsibilities (paper §III, Table III):

1. **Metadata server** — authoritative :class:`ClusterMap`, served to
   clients (``get_cluster_map``) and controlets (``get_shard_info``).
2. **Liveness** — controlets heartbeat periodically; a sweep declares a
   node dead after ``failure_timeout`` without one.
3. **Failover** — on a death: repair the shard (chain re-linking /
   leader election), bump the epoch, push ``config_update`` to
   survivors, and launch a replacement controlet-datalet pair on a
   standby host; when the replacement reports ``recovery_done`` it
   joins as the new tail.
4. **Transition manager** (§V) — orchestrates live topology/consistency
   switches with the dual-controlet handover protocol.
5. **Reshard manager** — adds or removes a shard online (double-ring
   cutover with live key migration).

At most one transition or reshard is in flight, as one
:class:`Operation`: the *desired* state (target combo and each shard's
pending new service, or the planned ring change) beside the committed
map.  A request passes one gate (``_admit``) and only writes that
record; one idempotent ``_reconcile``, run on every ack, every failure
and every sweep tick, emits the next step (and with nothing to do sends
nothing).  A phase's participants are recomputed from the live map each
time: its order goes to every current participant not yet sent it, and
the phase advances once every current participant acked — a dead member
drops out of the wait, a member that joins mid-phase gets the order.
So a source whose head changed gets ``reshard_migrate`` at its new
head; a pending new service drops the counterpart of a dead old
replica, and if that moves its head the live old members get
``transition_start`` again with the new ``forward_to``; and a shard in
mid-transition refills only once it flips, against the new service
(replacements still recovering for the old one are retired).  Replica
repairs run alongside, one ``_repairs`` entry per replacement
controlet until ``recovery_done``.

Spawning new actors requires constructing them inside the hosting
runtime, so the coordinator takes three injected factories from the
deployment layer: ``spawner`` (replacement pairs),
``transition_spawner`` (a parallel controlet set over existing
datalets) and ``reshard_spawner`` (a whole new shard).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.view import RESHARD_ADD, RESHARD_REMOVE, ClusterView
from repro.core.config import ControlConfig
from repro.core.types import ClusterMap, Consistency, Replica, ShardInfo, Topology
from repro.errors import ConfigError
from repro.net.actor import Actor
from repro.net.message import Message
from repro.sharedlog import log_name

__all__ = ["CoordinatorActor"]

#: (shard, recovery_source_datalet) -> new Replica, or None if no standby.
Spawner = Callable[[ShardInfo, str], Optional[Replica]]
#: (shard, topology, consistency) -> new ShardInfo with fresh controlets.
TransitionSpawner = Callable[[ShardInfo, Topology, Consistency], ShardInfo]
#: (topology, consistency) -> a fresh ShardInfo of that combo (spawned
#: controlet/datalet pairs + shared log when the combo needs one), or
#: None when capacity is exhausted.
ReshardSpawner = Callable[[Topology, Consistency], Optional[ShardInfo]]
MOVE_STATS = ("moved", "skipped", "total")  # per-source ``migrate_done`` counts
#: ack message -> (the phase it settles, the payload field naming the participant)
ACKS = {
    "transition_ready": ("draining", "controlet"),
    "migrate_done": ("migrating", "shard"),
    "reshard_fenced": ("fencing", "controlet"),
}


@dataclass(eq=False)
class Operation:
    """The coordinator's one in-flight transition or reshard: the
    desired state ``_reconcile`` drives the committed map toward."""

    kind: str  # "transition" | "reshard"
    requester: Message
    phase: str = ""
    #: participant -> (destination, argument) of the order it was last
    #: sent; ``acked``: the participants that acked that order
    sent: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    acked: Set[str] = field(default_factory=set)
    #: transition: the target combo, and each shard's new service (None
    #: until spawned; dropped when the shard flips)
    combo: Tuple[Optional[Topology], Optional[Consistency]] = (None, None)
    pending: Dict[str, Optional[ShardInfo]] = field(default_factory=dict)
    #: reshard: the planned ring change (``plan_reshard``'s old/new
    #: members), the incoming shard on an add, and each source's copy
    #: counts (from the ``migrate_done`` counted for it)
    action: str = ""
    shard: str = ""
    new_shard: Optional[ShardInfo] = None
    old_ring: List[str] = field(default_factory=list)
    new_ring: List[str] = field(default_factory=list)
    counts: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def start_phase(self, phase: str) -> None:
        self.phase, self.sent, self.acked = phase, {}, set()


class CoordinatorActor(Actor):
    """ZooKeeper-backed coordinator stand-in."""

    def __init__(
        self,
        node_id: str = "coordinator",
        cluster_map: Optional[ClusterMap] = None,
        config: Optional[ControlConfig] = None,
        spawner: Optional[Spawner] = None,
        transition_spawner: Optional[TransitionSpawner] = None,
        reshard_spawner: Optional[ReshardSpawner] = None,
        partitioner: str = "hash",
        dlm: str = "dlm",
    ):
        super().__init__(node_id)
        #: the epoch'd membership view; ``self.map`` stays an alias of
        #: the (shared) underlying ClusterMap so the deployment harness,
        #: model checker and tests keep observing every change.
        self.view = ClusterView(cluster_map if cluster_map is not None else ClusterMap())
        self.map = self.view.map
        self.config = config or ControlConfig()
        self.spawner = spawner
        self.transition_spawner = transition_spawner
        self.reshard_spawner = reshard_spawner
        self.partitioner = partitioner
        self.dlm = dlm
        self._last_seen: Dict[str, float] = {}
        self._dead: Set[str] = set()
        #: desired replica count per shard: repairs refill to this
        #: level and never past it (a promoted standby working from a
        #: stale map must not spawn a second replacement for a death
        #: the old primary already repaired).
        self._shard_target: Dict[str, int] = {
            sid: len(s.replicas) for sid, s in self.map.shards.items()
        }
        #: replacements spawned, not yet recovered: controlet -> (shard, replica)
        self._repairs: Dict[str, Tuple[str, Replica]] = {}
        #: the in-flight transition or reshard, if any
        self._op: Optional[Operation] = None
        self.failovers = 0
        self.register("heartbeat", self._on_heartbeat)
        self.register("datalet_failed", self._on_datalet_failed)
        self.register("get_cluster_map", self._on_get_map)
        self.register("get_shard_info", self._on_get_shard)
        self.register("recovery_done", self._on_recovery_done)
        self.register("request_transition", self._on_request_transition)
        self.register("request_reshard", self._on_request_reshard)
        self.register("transition_ready", self._on_ack)
        self.register("migrate_done", self._on_ack)
        self.register("reshard_fenced", self._on_ack)

    def service_demand(self, msg: Message, costs) -> float:
        return costs.scaled("coordinator_overhead")

    def metrics_group(self) -> Dict[str, float]:
        return {
            "failovers": self.failovers,
            "recovering": len(self._repairs),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        now = self.now()
        for shard in self.map.shards.values():
            for r in shard.replicas:
                self._last_seen.setdefault(r.controlet, now)
        # The deployment populates the (shared) map after constructing
        # us, so repair targets are captured here, not in __init__.
        self._record_targets()
        if not self.view.log and self.map.shards:
            # the ctor saw an empty map; log the seed membership now
            # (a note, not a commit: epoch numbering must not shift)
            self.view.note("bootstrap", ",".join(self.map.shard_ids()))
        # phase-staggered first arm: the sweep must never share a
        # timestamp with the follower-sync loop (same period, same boot)
        self._arm_loop("sweep", self._sweep)

    def _arm_loop(self, name: str, fn: Callable[[], None]) -> None:
        """First arm of a heartbeat-period loop, at its own phase offset."""
        hb = self.config.heartbeat_interval
        self.set_timer(hb + self.loop_phase(name, hb), fn)

    def _ticks(self, seen: float) -> int:
        """Quantized silence since ``seen``: heartbeat periods, capped
        just past the failure timeout (model-checker fingerprints)."""
        hb = self.config.heartbeat_interval
        cap = int(self.config.failure_timeout / hb) + 2
        return min(int(max(0.0, self.now() - seen) / hb), cap)

    def _record_targets(self) -> None:
        for sid, shard in self.map.shards.items():
            self._shard_target.setdefault(sid, len(shard.replicas))

    # ------------------------------------------------------------------
    # metadata queries
    # ------------------------------------------------------------------
    def _on_get_map(self, msg: Message) -> None:
        self.respond(
            msg,
            "cluster_map",
            {
                "map": self.map.to_dict(),
                "view": self.view.ring_info(),
                "partitioner": self.partitioner,
            },
        )

    def _on_get_shard(self, msg: Message) -> None:
        sid = msg.payload["shard"]
        if sid not in self.map.shards:
            self.respond(msg, "error", {"error": f"unknown shard {sid!r}"})
            return
        self.respond(msg, "shard_info", self._shard_payload(self.map.shard(sid)))

    def _shard_payload(self, shard: ShardInfo) -> Dict[str, object]:
        """One shard's view: what ``shard_info`` and ``config_update`` carry."""
        return {
            "shard": shard.to_dict(),
            "epoch": self.map.epoch,
            "ring": self.view.ring_info(),
            "partitioner": self.partitioner,
        }

    # ------------------------------------------------------------------
    # liveness & failover
    # ------------------------------------------------------------------
    def _on_heartbeat(self, msg: Message) -> None:
        self._last_seen[msg.payload["controlet"]] = self.now()

    def _on_datalet_failed(self, msg: Message) -> None:
        """Split-placement failure report: a controlet's (remote)
        datalet stopped answering.  The pair is repaired as a unit —
        the orphaned controlet is retired and the shard relinked, the
        same path a missed host heartbeat takes."""
        controlet = msg.payload["controlet"]
        sid = msg.payload["shard"]
        if controlet in self._dead or sid not in self.map.shards:
            return
        shard = self.map.shard(sid)
        try:
            replica = shard.replica_of(controlet)
        except ConfigError:  # stale report after repair
            return
        self._handle_failure(shard, replica)
        self._reconcile()
        self.send(controlet, "retire", {})

    def _sweep(self) -> None:
        now = self.now()
        for shard in list(self.map.shards.values()):
            for replica in shard.ordered():
                c = replica.controlet
                if c in self._dead:
                    continue
                seen = self._last_seen.get(c, now)
                if now - seen > self.config.failure_timeout:
                    self._handle_failure(shard, replica)
        # once, after every death of this tick: a flip mid-loop would
        # leave the loop repairing a shard the map no longer holds
        self._reconcile()
        self.set_timer(self.config.heartbeat_interval, self._sweep)

    def _handle_failure(self, shard: ShardInfo, dead: Replica) -> None:
        """Chain repair + leader election + replacement launch (deferred
        while the shard is mid-transition).  The caller reconciles."""
        self.failovers += 1
        self._dead.add(dead.controlet)
        # If the dead node was itself a mid-recovery replacement
        # (AA-strong join-first), its in-flight entry must not count
        # toward shard strength below.
        self._repairs.pop(dead.controlet, None)
        shard.remove_replica(dead.controlet)
        self.view.commit("failover", f"{shard.shard_id}:-{dead.controlet}")
        self._broadcast_config(shard)
        if self._op is None or shard.shard_id not in self._op.pending:
            self._refill(shard)

    def _refill(self, shard: ShardInfo) -> bool:
        """Launch one replacement if ``shard`` is below its target
        strength; True if one was launched."""
        # Refill toward the deployment's target strength, counting
        # replacements already in flight: a promoted standby replaying a
        # death from a stale map (the old primary repaired it, then died
        # before syncing) must not spawn a second replacement.
        # An AA+SC join-first replacement is a member already: count it once.
        target = self._shard_target.get(shard.shard_id, len(shard.replicas) + 1)
        members = {r.controlet for r in shard.replicas}
        inflight = sum(1 for c, (sid, _) in self._repairs.items()
                       if sid == shard.shard_id and c not in members)
        if not (
            self.spawner is not None
            and shard.replicas
            and len(shard.replicas) + inflight < target
        ):
            return False
        # Recover from the current tail: under chain replication the
        # tail holds every committed write; under EC/AA any live
        # replica is as good as another.  A join-first replacement
        # still recovering is no source (it may lack committed writes):
        # take the last member that is not one.  Capture the source
        # BEFORE any join-first append below changes who the tail is.
        source = next((r.datalet for r in reversed(shard.ordered())
                       if r.controlet not in self._repairs), shard.tail.datalet)
        new_replica = self.spawner(shard, source)
        if new_replica is None:
            # No standby host available: the shard keeps serving
            # with fewer replicas, but flag the exposure so clients
            # and operators can see it.
            self.map.degraded.add(shard.shard_id)
            self.view.commit("degraded", shard.shard_id)
            self._broadcast_config(shard)
            return False
        self._repairs[new_replica.controlet] = (shard.shard_id, new_replica)
        self._last_seen[new_replica.controlet] = self.now()
        if (
            shard.topology is Topology.AA
            and shard.consistency is Consistency.STRONG
        ):
            # Join-first (AA strong): fan-out writers replicate to
            # every member of the shard view, so the replacement
            # must appear in the view *before* its state transfer
            # starts — it buffers incoming writes while recovering.
            shard.add_replica(new_replica)
            self.view.commit(
                "replica-join", f"{shard.shard_id}:+{new_replica.controlet}"
            )
            self._broadcast_config(shard)
        return True

    def _on_recovery_done(self, msg: Message) -> None:
        controlet = msg.payload["controlet"]
        repair = self._repairs.pop(controlet, None)
        if repair is None or repair[0] not in self.map.shards:
            return
        # The replacement joins at the end of the chain (paper: "adds
        # the new pair as the new tail").
        sid, replica = repair
        shard = self.map.shard(sid)
        self.map.degraded.discard(sid)
        if any(r.controlet == controlet for r in shard.replicas):
            # Join-first path (AA strong): already a member; recovery
            # completion only clears the pending bookkeeping.
            return
        shard.add_replica(replica)
        self.view.commit("replica-join", f"{sid}:+{replica.controlet}")
        self._broadcast_config(shard)

    def register_pending(self, shard_id: str, replica: Replica) -> None:
        """Mirror a replacement another coordinator spawned, so whichever
        one is active when its recovery completes adds it to the shard."""
        self._repairs[replica.controlet] = (shard_id, replica)

    def _broadcast_config(self, shard: ShardInfo) -> None:
        payload = self._shard_payload(shard)
        for replica in shard.ordered():
            self.send(replica.controlet, "config_update", dict(payload))

    def _broadcast_all(self) -> None:
        """Push fresh config to every shard — ring-wide changes
        (reshard begin/commit) re-route every controlet, not just one
        shard's."""
        for shard in self.map.shards.values():
            self._broadcast_config(shard)

    def leader_elect(self, shard_id: str) -> str:
        """LeaderElect(s) (Table III): current head after repairs."""
        return self.map.shard(shard_id).head.controlet

    # ------------------------------------------------------------------
    # model-checker introspection
    # ------------------------------------------------------------------
    def snapshot_state(self):
        """Fingerprint state with *quantized* liveness: raw ``_last_seen``
        timestamps never repeat, so they would keep the explored graph
        from ever closing.  What matters behaviorally is how many more
        failure-detector sweeps a silent node survives — an integer that
        progresses as the explorer advances time and saturates once the
        node is overdue."""
        s = super().snapshot_state()
        op = self._op
        staleness = {}
        for c, seen in self._last_seen.items():
            if c in self._dead:
                continue
            staleness[c] = self._ticks(seen)
        s.update({
            "epoch": self.map.epoch,
            "shards": {
                sid: [r.controlet for r in shard.ordered()]
                for sid, shard in self.map.shards.items()
            },
            "degraded": sorted(self.map.degraded),
            "dead": sorted(self._dead),
            "staleness": staleness,
            "recovering": {c: sid for c, (sid, _) in self._repairs.items()},
            "view": self.view.snapshot(),
            "op": None if op is None else [
                op.kind, op.phase, sorted(op.pending), sorted(op.acked)],
        })
        return s

    # ------------------------------------------------------------------
    # the in-flight operation: one admission gate, one reconcile
    # ------------------------------------------------------------------
    def _admit(self, msg: Message, kind: str) -> bool:
        """The one gate: refuse any request while an operation runs."""
        op = self._op
        if op is None:
            return True
        again = "already " if op.kind == kind else ""
        self.respond(msg, "error", {"error": f"{op.kind} {again}in progress"})
        return False

    def _on_ack(self, msg: Message) -> None:
        phase, who = ACKS[msg.type]
        self._ack(phase, msg.payload[who], msg.src, counts=msg.payload)

    def _ack(self, phase: str, member: str, src: str, err=None, counts=None) -> None:
        """The one ack path: count ``member``'s ack of the order it was
        last sent, if it comes from where that order went (an
        unreachable member is sent it again), then reconcile.

        An ack does not name the order it answers: a ``transition_ready``
        still in flight when a moved head re-sends ``transition_start``
        counts for the new order.  That is safe: the old controlet's
        drain is done either way, and it forwards to the new head as
        soon as the new order lands, before the flip's retire.  A source
        re-ordered at its new head replaces its earlier copy counts."""
        op = self._op
        if (op is None or op.phase != phase or member in op.acked
                or op.sent.get(member, ("",))[0] != src):
            return  # stale or duplicate
        if err is not None:
            del op.sent[member]
        else:
            op.acked.add(member)
            if phase == "migrating":
                op.counts[member] = {k: int(counts.get(k, 0)) for k in MOVE_STATS}
        self._reconcile()

    def _dispatch(self, op: Operation, participants: Dict[str, Tuple[str, str]]) -> bool:
        """Send the phase's order to every participant not yet sent this
        one; True once every current participant acked it."""
        for member, order in participants.items():
            if op.sent.get(member) != order:
                op.sent[member] = order
                op.acked.discard(member)
                self._order(op, member, *order)
        return participants.keys() <= op.acked

    def _order(self, op: Operation, member: str, dest: str, arg: str) -> None:
        if op.phase == "draining":
            self.send(dest, "transition_start", {"forward_to": arg})
        elif op.phase == "arming":
            # the window must not open until every authority is armed:
            # an unreachable one is asked again
            payload = {
                "gen": self.view.ring_gen + 1,
                "new": list(op.new_ring),
                "old": list(op.old_ring),
            }
            self.call(dest, "reshard_begin", payload, timeout=5.0,
                      callback=lambda resp, err: self._ack("arming", member, dest, err))
        elif op.phase == "migrating":
            self.send(
                dest,
                "reshard_migrate",
                {"reshard": dict(self.view.reshard), "epoch": self.map.epoch},
            )
        else:
            self.send(dest, "reshard_fence", {"gen": self.view.ring_gen})

    def _reconcile(self) -> None:
        """Emit the next step of the in-flight operation, if any."""
        op = self._op
        if op is not None and op.kind == "transition":
            self._reconcile_transition(op)
            return
        while op is not None and self._dispatch(op, self._reshard_participants(op)):
            if op.phase == "fencing":
                self._finish_reshard(op)
                return
            if op.phase == "arming":
                self._open_window(op)
            else:
                op.start_phase("fencing")

    # ------------------------------------------------------------------
    # transitions (§V)
    # ------------------------------------------------------------------
    def _on_request_transition(self, msg: Message) -> None:
        if not self._admit(msg, "transition"):
            return
        if self.transition_spawner is None:
            self.respond(msg, "error", {"error": "no transition spawner configured"})
            return
        topology = Topology(msg.payload["topology"])
        consistency = Consistency(msg.payload["consistency"])
        self._op = Operation("transition", msg, "draining", combo=(topology, consistency),
                             pending=dict.fromkeys(self.map.shards))
        self._reconcile()

    def _reconcile_transition(self, op: Operation) -> None:
        """Per shard: spawn its new service, prune the counterparts of
        dead old replicas, order every live old member to drain and
        forward to the new head, and flip once all of them are ready."""
        for sid, new_shard in list(op.pending.items()):
            shard = self.map.shard(sid)
            live = {r.datalet for r in shard.replicas}
            if new_shard is None:
                new_shard = op.pending[sid] = self.transition_spawner(shard, *op.combo)
            for r in new_shard.ordered():
                if r.datalet not in live:
                    new_shard.remove_replica(r.controlet)
            forward_to = new_shard.head.controlet if new_shard.replicas else ""
            if self._dispatch(op, {c: (c, forward_to) for c in shard.controlets()}):
                self._flip(op, sid)
        if not op.pending:
            self._op = None
            self.respond(op.requester, "transition_done", {"epoch": self.map.epoch})

    def _flip(self, op: Operation, sid: str) -> None:
        """Every live old controlet of ``sid`` drained: flip it to the new
        service, retire the old one (with any replacement still
        recovering for it) and refill against the new one, one
        replacement per death the transition deferred."""
        new_shard = op.pending.pop(sid)
        old_controlets = self.map.shards[sid].controlets()
        self.map.shards[sid] = new_shard
        self.view.commit(
            "transition-flip",
            f"{sid}:{new_shard.topology.value}-{new_shard.consistency.value}",
        )
        now = self.now()
        for replica in new_shard.ordered():
            self._last_seen.setdefault(replica.controlet, now)
        self._broadcast_config(new_shard)
        old_controlets += [c for c, (s, _) in self._repairs.items()
                           if s == sid and c not in old_controlets]
        for old in old_controlets:
            self._repairs.pop(old, None)
            self.send(old, "retire", {})
        while self._refill(new_shard):
            pass

    # ------------------------------------------------------------------
    # online resharding (double-ring cutover + live key migration)
    # ------------------------------------------------------------------
    #
    # Phases of a reshard operation, each a set of participants:
    #
    # ``arming``     the shard-log sequencers / DLM learn the window
    #                *before* any client or controlet does, so every
    #                dual-routed write is dirty-tracked from the first;
    # ``migrating``  the window is open (double ring broadcast, clients
    #                dual-route writes / prefer-new-fallback-old reads)
    #                while each source shard's entry pumps its moved
    #                keys to the new-ring owners;
    # ``fencing``    copies done: every old-ring controlet acks that it
    #                now rejects moved-key ops, so no stale read can be
    #                served from an old owner after the flip;
    # then the view commits ``reshard-commit``, a removed shard is
    # retired, and the new ring becomes the only ring.
    def _on_request_reshard(self, msg: Message) -> None:
        if not self._admit(msg, "reshard"):
            return
        if self.partitioner != "hash":
            self.respond(
                msg, "error",
                {"error": f"resharding requires hash partitioning, not {self.partitioner!r}"},
            )
            return
        action = msg.payload["action"]
        new_shard: Optional[ShardInfo] = None
        sid = msg.payload.get("shard")
        if action == RESHARD_ADD:
            if self.reshard_spawner is None:
                self.respond(msg, "error", {"error": "no reshard spawner configured"})
                return
            ref = self.map.shard(self.map.shard_ids()[0])  # the committed combo
            new_shard = self.reshard_spawner(ref.topology, ref.consistency)
            if new_shard is None:
                self.respond(msg, "error", {"error": "no capacity for a new shard"})
                return
            sid = new_shard.shard_id
        try:
            old_ids, new_ids = self.view.plan_reshard(action, sid)
        except ConfigError as e:
            self.respond(msg, "error", {"error": str(e)})
            return
        self._op = Operation(
            "reshard", msg, "arming", action=action, shard=sid, new_shard=new_shard,
            old_ring=old_ids, new_ring=new_ids,
        )
        self._reconcile()

    def _reshard_authorities(self, op: Operation) -> List[str]:
        """Ordering authorities that must learn the window first: the
        DLM for AA+SC shards, each shard's log sequencer for AA+EC —
        including the incoming shard's fresh sequencer."""
        targets: List[str] = []
        shards = list(self.map.shards.values())
        if op.new_shard is not None:
            shards.append(op.new_shard)
        if any(
            s.topology is Topology.AA and s.consistency is Consistency.STRONG
            for s in shards
        ):
            targets.append(self.dlm)
        for s in shards:
            if s.topology is Topology.AA and s.consistency is Consistency.EVENTUAL:
                targets.append(log_name(s.shard_id))
        return targets

    def _reshard_participants(self, op: Operation) -> Dict[str, Tuple[str, str]]:
        """The current phase's participants in the live map: the
        authorities, each source shard's current head (sources: every
        old shard on an add, the leaving shard on a remove), or every
        old-ring controlet."""
        if op.phase == "arming":
            return {t: (t, "") for t in self._reshard_authorities(op)}
        shards = [self.map.shards[s] for s in op.old_ring if s in self.map.shards]
        if op.phase == "migrating":
            return {s.shard_id: (s.head.controlet, "") for s in shards
                    if s.replicas and (op.action == RESHARD_ADD or s.shard_id == op.shard)}
        return {c: (c, "") for s in shards for c in s.controlets()}

    def _open_window(self, op: Operation) -> None:
        sid = op.shard
        self.view.begin_reshard(op.action, sid)
        if op.new_shard is not None:
            self.map.shards[sid] = op.new_shard
            self._shard_target[sid] = len(op.new_shard.replicas)
            now = self.now()
            for r in op.new_shard.ordered():
                self._last_seen.setdefault(r.controlet, now)
        # entry (ordering authority) per shard, for migration targets
        assert self.view.reshard is not None
        self.view.reshard["entries"] = {
            s.shard_id: s.head.controlet for s in self.map.shards.values()
        }
        op.start_phase("migrating")
        self._broadcast_all()

    def _finish_reshard(self, op: Operation) -> None:
        for t in self._reshard_authorities(op):
            self.send(t, "reshard_end", {"gen": self.view.ring_gen})
        self.view.commit_reshard()
        if op.action == RESHARD_REMOVE:
            removed = self.map.shards.pop(op.shard, None)
            self._shard_target.pop(op.shard, None)
            if removed is not None:
                for r in removed.ordered():
                    self._last_seen.pop(r.controlet, None)
                    self._dead.discard(r.controlet)
                    self.send(r.controlet, "retire", {})
        self._broadcast_all()
        self._op = None
        totals = {k: sum(c[k] for c in op.counts.values()) for k in MOVE_STATS}
        self.respond(
            op.requester,
            "reshard_done",
            {"epoch": self.map.epoch, "shard": op.shard, **totals},
        )
