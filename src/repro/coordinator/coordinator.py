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
:class:`Operation`: its kind, phase, requester, and the participants
the phase still waits for.  Requests pass one gate (``_admit``), acks
one settle path (``_settle``).  Replica repairs run alongside, one
``_repairs`` entry per replacement controlet until ``recovery_done``.

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
#: () -> a fresh ShardInfo (spawned controlet/datalet pairs + shared log
#: when the combo needs one), or None when capacity is exhausted.
ReshardSpawner = Callable[[], Optional[ShardInfo]]
MOVE_STATS = ("moved", "skipped", "total")  # per-source ``migrate_done`` counts


@dataclass(eq=False)
class Operation:
    """The coordinator's one in-flight transition or reshard."""

    kind: str  # "transition" | "reshard"
    requester: Message
    phase: str = ""
    #: participants the phase still waits for, by group; when a group
    #: drains, ``step(group)`` moves the operation on
    waiting: Dict[str, Set[str]] = field(default_factory=dict)
    step: Callable[[str], None] = lambda group: None
    #: transition: shard id -> (new controlet generation, old controlets)
    flips: Dict[str, Tuple[ShardInfo, List[str]]] = field(default_factory=dict)
    #: reshard: the planned ring change (``plan_reshard``'s old/new
    #: members), the incoming shard on an add, and the copy totals
    action: str = ""
    shard: str = ""
    new_shard: Optional[ShardInfo] = None
    old_ring: List[str] = field(default_factory=list)
    new_ring: List[str] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(MOVE_STATS, 0))


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
        self.register("transition_ready", self._on_transition_ready)
        self.register("request_reshard", self._on_request_reshard)
        self.register("migrate_done", self._on_migrate_done)
        self.register("reshard_fenced", self._on_reshard_fenced)

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
        self.set_timer(
            self.config.heartbeat_interval
            + self.loop_phase("sweep", self.config.heartbeat_interval),
            self._sweep,
        )

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
        self.respond(
            msg,
            "shard_info",
            {
                "shard": self.map.shard(sid).to_dict(),
                "epoch": self.map.epoch,
                "ring": self.view.ring_info(),
                "partitioner": self.partitioner,
            },
        )

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
        except Exception:  # noqa: BLE001 - stale report after repair
            return
        self._handle_failure(shard, replica)
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
        self.set_timer(self.config.heartbeat_interval, self._sweep)

    def _handle_failure(self, shard: ShardInfo, dead: Replica) -> None:
        """Chain repair + leader election + replacement launch."""
        self.failovers += 1
        self._dead.add(dead.controlet)
        # If the dead node was itself a mid-recovery replacement
        # (AA-strong join-first), its in-flight entry must not count
        # toward shard strength below.
        self._repairs.pop(dead.controlet, None)
        shard.remove_replica(dead.controlet)
        # Re-number the chain: if the head died this *is* the leader
        # election (second node promoted); if a mid/tail died the chain
        # simply re-links around it.
        for pos, replica in enumerate(shard.ordered()):
            replica.chain_pos = pos
        self.view.commit("failover", f"{shard.shard_id}:-{dead.controlet}")
        self._broadcast_config(shard)

        # Refill toward the deployment's target strength, counting
        # replacements already in flight: a promoted standby replaying a
        # death from a stale map (the old primary repaired it, then died
        # before syncing) must not spawn a second replacement.
        target = self._shard_target.get(shard.shard_id, len(shard.replicas) + 1)
        inflight = sum(1 for sid, _ in self._repairs.values() if sid == shard.shard_id)
        if (
            self.spawner is not None
            and shard.replicas
            and len(shard.replicas) + inflight < target
        ):
            # Recover from the current tail: under chain replication the
            # tail holds every committed write; under EC/AA any live
            # replica is as good as another.  Capture the source BEFORE
            # any join-first append below changes who the tail is.
            source = shard.tail.datalet
            new_replica = self.spawner(shard, source)
            if new_replica is None:
                # No standby host available: the shard keeps serving
                # with fewer replicas, but flag the exposure so clients
                # and operators can see it.
                self.map.degraded.add(shard.shard_id)
                self.view.commit("degraded", shard.shard_id)
                self._broadcast_config(shard)
                return
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
                new_replica.chain_pos = len(shard.replicas)
                shard.replicas.append(new_replica)
                self.view.commit(
                    "replica-join", f"{shard.shard_id}:+{new_replica.controlet}"
                )
                self._broadcast_config(shard)

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
        replica.chain_pos = len(shard.replicas)
        shard.replicas.append(replica)
        self.view.commit("replica-join", f"{sid}:+{replica.controlet}")
        self._broadcast_config(shard)

    def register_pending(self, shard_id: str, replica: Replica) -> None:
        """Mirror a replacement another coordinator spawned, so whichever
        one is active when its recovery completes adds it to the shard."""
        self._repairs[replica.controlet] = (shard_id, replica)

    def _broadcast_config(self, shard: ShardInfo) -> None:
        payload = {
            "shard": shard.to_dict(),
            "epoch": self.map.epoch,
            "ring": self.view.ring_info(),
            "partitioner": self.partitioner,
        }
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
        now = self.now()
        hb = self.config.heartbeat_interval
        cap = int(self.config.failure_timeout / hb) + 2
        staleness = {}
        for c, seen in self._last_seen.items():
            if c in self._dead:
                continue
            staleness[c] = min(int(max(0.0, now - seen) / hb), cap)
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
            "pending_replicas": sorted(self._repairs),
            "transitions": sorted(op.waiting) if op and op.kind == "transition" else [],
            "view": self.view.snapshot(),
            "reshard_phase": op.phase if op and op.kind == "reshard" else None,
        })
        return s

    # ------------------------------------------------------------------
    # the in-flight operation: one admission gate, one settle path
    # ------------------------------------------------------------------
    def _admit(self, msg: Message, kind: str) -> bool:
        """The one gate: refuse any request while an operation runs."""
        op = self._op
        if op is None:
            return True
        again = "already " if op.kind == kind else ""
        self.respond(msg, "error", {"error": f"{op.kind} {again}in progress"})
        return False

    def _enter(self, op: Operation, phase: str, members: List[str],
               step: Callable[[str], None]) -> None:
        """Enter ``phase``: ``step`` runs once all ``members`` acked."""
        op.phase, op.step = phase, step
        op.waiting = {"": set(members)} if members else {}
        if not members:
            step("")

    def _settle(self, phase: str, member: str, group: str = "") -> None:
        """Count one ack; a group's last ack runs the phase's step."""
        op = self._op
        if op is None or op.phase != phase or group not in op.waiting:
            return
        members = op.waiting[group]
        members.discard(member)
        if not members:
            del op.waiting[group]
            op.step(group)

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
        op = self._op = Operation("transition", msg, "draining")
        op.step = lambda sid: self._flip(op, sid)
        for shard in self.map.shards.values():
            new_shard = self.transition_spawner(shard, topology, consistency)
            old_controlets = shard.controlets()
            op.flips[shard.shard_id] = (new_shard, old_controlets)
            op.waiting[shard.shard_id] = set(old_controlets)
            forward_to = new_shard.head.controlet
            for c in old_controlets:
                self.send(c, "transition_start", {"forward_to": forward_to})

    def _on_transition_ready(self, msg: Message) -> None:
        self._settle("draining", msg.payload["controlet"], msg.payload["shard"])

    def _flip(self, op: Operation, sid: str) -> None:
        """Every old controlet of ``sid`` drained: flip it to the new service."""
        new_shard, old_controlets = op.flips.pop(sid)
        self.map.shards[sid] = new_shard
        self.view.commit(
            "transition-flip",
            f"{sid}:{new_shard.topology.value}-{new_shard.consistency.value}",
        )
        now = self.now()
        for replica in new_shard.ordered():
            self._last_seen.setdefault(replica.controlet, now)
        self._broadcast_config(new_shard)
        for old in old_controlets:
            self.send(old, "retire", {})
        if not op.waiting:
            self._op = None
            self.respond(op.requester, "transition_done", {"epoch": self.map.epoch})

    # ------------------------------------------------------------------
    # online resharding (double-ring cutover + live key migration)
    # ------------------------------------------------------------------
    #
    # Phases of a reshard operation:
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
            new_shard = self.reshard_spawner()
            if new_shard is None:
                self.respond(msg, "error", {"error": "no capacity for a new shard"})
                return
            sid = new_shard.shard_id
        try:
            old_ids, new_ids = self.view.plan_reshard(action, sid)
        except ConfigError as e:
            self.respond(msg, "error", {"error": str(e)})
            return
        op = self._op = Operation(
            "reshard", msg, action=action, shard=sid, new_shard=new_shard,
            old_ring=old_ids, new_ring=new_ids,
        )
        self._arm_authorities(op)

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

    def _arm_authorities(self, op: Operation) -> None:
        targets = self._reshard_authorities(op)
        payload = {
            "gen": self.view.ring_gen + 1,
            "new": list(op.new_ring),
            "old": list(op.old_ring),
        }

        def acked(target):
            def cb(resp, err):
                if err is not None:
                    # authority unreachable mid-arm: re-ask (the window
                    # must not open until every authority is armed)
                    self.call(target, "reshard_begin", dict(payload),
                              callback=acked(target), timeout=5.0)
                    return
                self._settle("arming", target)
            return cb

        self._enter(op, "arming", targets, lambda _: self._open_window(op))
        for t in targets:
            self.call(t, "reshard_begin", dict(payload),
                      callback=acked(t), timeout=5.0)

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
        # sources: shards whose owned key ranges shrink under the new
        # ring — every old shard on an add, the leaving shard on remove
        source_ids = list(op.old_ring) if op.action == RESHARD_ADD else [sid]
        self._enter(op, "migrating", source_ids, lambda _: self._fence(op))
        self._broadcast_all()
        for source in sorted(source_ids):
            shard = self.map.shard(source)
            self.send(
                shard.head.controlet,
                "reshard_migrate",
                {"reshard": dict(self.view.reshard), "epoch": self.map.epoch},
            )

    def _on_migrate_done(self, msg: Message) -> None:
        op = self._op
        sid = msg.payload["shard"]
        if op is None or op.phase != "migrating" or sid not in op.waiting.get("", ()):
            return  # stale or duplicate completion report
        for k in MOVE_STATS:
            op.stats[k] += int(msg.payload.get(k, 0))
        self._settle("migrating", sid)

    def _fence(self, op: Operation) -> None:
        """Every source drained: fence the old ring before the flip, so no
        stale client reads a moved key from an old owner afterwards."""
        fenced: List[str] = []
        for old_sid in op.old_ring:
            if old_sid not in self.map.shards:
                continue
            for r in self.map.shard(old_sid).ordered():
                fenced.append(r.controlet)
                self.send(r.controlet, "reshard_fence", {"gen": self.view.ring_gen})
        self._enter(op, "fencing", fenced, lambda _: self._finish_reshard(op))

    def _on_reshard_fenced(self, msg: Message) -> None:
        self._settle("fencing", msg.payload["controlet"])

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
        self.respond(
            op.requester,
            "reshard_done",
            {"epoch": self.map.epoch, "shard": op.shard, **op.stats},
        )
