"""Deployment builder: turn a spec into a running simulated cluster.

This is the equivalent of the paper artifact's ``slap.sh`` scripts plus
the JSON config: given shard/replica counts, a topology/consistency
combination and a list of datalet kinds, it stands up coordinator, DLM,
per-shard shared logs, controlet-datalet pairs (one host per pair, the
paper's 1:1 default), and a pool of standby hosts for failover.

Each thing has one builder: ``_build_shard`` (boot and online shard
add), ``_place_pair`` (every controlet-datalet pair, failover
replacements included), ``_sharedlog`` (a shard's sequencer, on first
need).  Chain order is not decided here: pairs join a shard through
:meth:`ShardInfo.add_replica`.

Naming scheme (also the host names):

* shard ``s{i}``, replica ``r{j}``
* controlet ``c{i}.{j}`` (transition generations append ``.g{n}``)
* datalet ``d{i}.{j}``
* host ``node{i}.{j}``, standbys ``standby{k}``
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.coordinator import CoordinatorActor
from repro.core.aa_ec import AAEventualControlet
from repro.core.aa_sc import AAStrongControlet
from repro.core.config import ControlConfig
from repro.core.controlet import Controlet
from repro.core.ms_ec import MSEventualControlet
from repro.core.ms_sc import MSStrongControlet
from repro.core.types import ClusterMap, Consistency, Replica, ShardInfo, Topology
from repro.datalet import DataletActor, make_engine
from repro.errors import ConfigError
from repro.net.simnet import SimCluster
from repro.client.kv import KVClient
from repro.sim import DEFAULT_COSTS, CostModel, NetworkParams

__all__ = ["DeploymentSpec", "Deployment", "CONTROLET_CLASSES"]

CONTROLET_CLASSES: Dict[Tuple[Topology, Consistency], type] = {
    (Topology.MS, Consistency.STRONG): MSStrongControlet,
    (Topology.MS, Consistency.EVENTUAL): MSEventualControlet,
    (Topology.AA, Consistency.STRONG): AAStrongControlet,
    (Topology.AA, Consistency.EVENTUAL): AAEventualControlet,
}


@dataclass
class DeploymentSpec:
    """Everything needed to stand up one cluster."""

    shards: int = 1
    replicas: int = 3
    topology: Topology = Topology.MS
    consistency: Consistency = Consistency.STRONG
    #: engine kind per replica position, cycled — a single entry gives a
    #: homogeneous store, several give polyglot persistence (§IV-D).
    datalet_kinds: Sequence[str] = ("ht",)
    #: engine constructor kwargs per kind.
    engine_kwargs: Dict[str, dict] = field(default_factory=dict)
    #: key→shard partitioning, "hash" (consistent hashing) or "range"
    #: (alphabetical, §IV-B); the coordinator names it in every reply.
    partitioner: str = "hash"
    standbys: int = 2
    dpdk: bool = False
    seed: int = 0
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    net_params: Optional[NetworkParams] = None
    control: ControlConfig = field(default_factory=ControlConfig)
    host_cpus: int = 4
    #: the DLM runs on its own host (the paper deploys the lock service
    #: on separate nodes); it remains AA+SC's serialization point.
    dlm_cpus: int = 4
    #: controlet:datalet mapping (paper §III: "a controlet may handle
    #: N >= 1 instances of datalets ... a controlet running on a
    #: high-capacity node may manage more datalet nodes").  ``None``
    #: keeps the default 1:1 colocated pairs; an integer packs all
    #: controlets onto that many dedicated controlet hosts (each sized
    #: ``controlet_host_cpus``), with datalets on their own hosts.
    controlet_hosts: Optional[int] = None
    controlet_host_cpus: int = 8
    #: run a standby coordinator that mirrors the primary and promotes
    #: on its failure (§VII's ZooKeeper-backed resilience).
    coordinator_standby: bool = False
    #: override the controlet class for every shard — how custom
    #: controlets (e.g. the §IV-B RangeQueryControlet) are deployed.
    #: Must be a subclass of the matching pre-built controlet so the
    #: topology/consistency protocol still fits.
    controlet_class: Optional[type] = None
    #: give every datalet a write-ahead log on its host's DurableStore:
    #: mutations are logged (and fsynced per ``wal_sync_every``) before
    #: they are acked, and a crashed host can be *recovered* from disk
    #: via :meth:`Deployment.recover_host` instead of replaced.
    durable: bool = False
    #: fsync after this many appends (1 = sync every ack; >1 = group
    #: commit — faster, but a crash may lose the unsynced tail).
    wal_sync_every: int = 1
    #: checkpoint the log after this many appends; engines with runs
    #: (the LSM) checkpoint whenever they cut one instead.
    wal_snapshot_every: int = 256
    #: how much of the unsynced suffix a crash destroys
    #: ("partial" | "all" | "none"), see :class:`~repro.sim.durable.DurableStore`.
    durable_loss: str = "partial"

    def __post_init__(self) -> None:
        if self.shards < 1 or self.replicas < 1:
            raise ConfigError("need at least one shard and one replica")
        if not self.datalet_kinds:
            raise ConfigError("datalet_kinds must not be empty")
        if self.controlet_hosts is not None and self.controlet_hosts < 1:
            raise ConfigError("controlet_hosts must be >= 1 when set")
        if self.partitioner not in ("hash", "range"):
            raise ConfigError(f"unknown partitioner {self.partitioner!r}")
        self.topology = Topology(self.topology)
        self.consistency = Consistency(self.consistency)


class Deployment:
    """A built cluster, ready to serve clients and take failures."""

    def __init__(self, spec: DeploymentSpec, cluster: Optional[SimCluster] = None):
        self.spec = spec
        # an injected cluster lets harnesses substitute an instrumented
        # SimCluster subclass (e.g. the model checker's controlled one)
        self.cluster = cluster if cluster is not None else SimCluster(
            costs=spec.costs, net_params=spec.net_params, seed=spec.seed
        )
        self.sim = self.cluster.sim
        self.cluster.durable_loss = spec.durable_loss
        self._gen = itertools.count(1)  # transition generation counter
        self._standby_counter = itertools.count()
        self._shard_seq = itertools.count(spec.shards)  # next reshard shard index
        self._standbys: List[str] = []
        #: host -> (shard_id, replica) for every controlet-datalet pair
        #: placed on its own host — the lookup recover_host uses to
        #: re-spawn a crashed pair from the host's DurableStore.
        self._host_pairs: Dict[str, Tuple[str, Replica]] = {}
        self.map = ClusterMap()

        # --- infrastructure actors ------------------------------------
        # the coordinator's factories, shared by the primary and standby
        factories = dict(
            config=spec.control,
            spawner=self._spawn_replacement,
            transition_spawner=self._spawn_transition,
            reshard_spawner=self._spawn_shard,
            partitioner=spec.partitioner,
        )
        coordinator_cls, primary_kwargs = CoordinatorActor, {}
        self.standby: Optional["StandbyCoordinator"] = None
        if spec.coordinator_standby:
            from repro.coordinator.standby import PrimaryCoordinator, StandbyCoordinator

            coordinator_cls = PrimaryCoordinator
            primary_kwargs = {"followers": ["coordinator.standby"]}
            self.standby = StandbyCoordinator("coordinator.standby", **factories)
            self.cluster.add_host("coordinator.standby", cpus=spec.host_cpus)
            self.cluster.add_actor(self.standby, host="coordinator.standby")
        self.coordinator = coordinator_cls(
            "coordinator", cluster_map=self.map, **primary_kwargs, **factories
        )
        self.cluster.add_host("coordinator", cpus=spec.host_cpus)
        self.cluster.add_actor(self.coordinator, host="coordinator")

        from repro.dlm import LockManagerActor  # local: keep import graph flat

        self.dlm = LockManagerActor("dlm", lease=spec.control.lock_lease)
        self.cluster.add_host("dlm", cpus=spec.dlm_cpus)
        self.cluster.add_actor(self.dlm, host="dlm")

        # boot shards get their sequencers up front, whatever the combo
        # (their place in the actor order is part of every sim-clock
        # run); a shard added later gets one with its first AA+EC controlet
        self.sharedlogs: Dict[str, str] = {}
        for i in range(spec.shards):
            self._sharedlog(f"s{i}")

        # --- dedicated controlet hosts (N:1 mapping, §III) -------------
        self._controlet_hosts: List[str] = []
        self._ctl_rr = itertools.count()
        if spec.controlet_hosts is not None:
            for k in range(spec.controlet_hosts):
                name = f"ctl{k}"
                self.cluster.add_host(name, cpus=spec.controlet_host_cpus,
                                      dpdk=spec.dpdk)
                self._controlet_hosts.append(name)

        # --- shards -----------------------------------------------------
        for i in range(spec.shards):
            shard = self._build_shard(i, spec.topology, spec.consistency)
            self.map.shards[shard.shard_id] = shard

        # --- standby pool -------------------------------------------------
        for _ in range(spec.standbys):
            name = f"standby{next(self._standby_counter)}"
            self.cluster.add_host(name, cpus=spec.host_cpus, dpdk=spec.dpdk)
            self._standbys.append(name)

    # ------------------------------------------------------------------
    # actor construction
    # ------------------------------------------------------------------
    def _make_engine(self, kind: str):
        return make_engine(kind, **self.spec.engine_kwargs.get(kind, {}))

    def _make_wal(self, host: str, datalet_id: str):
        """A write-ahead log on ``host``'s durable store (None unless
        the spec asks for durability)."""
        if not self.spec.durable:
            return None
        from repro.datalet.wal import WriteAheadLog

        return WriteAheadLog(
            self.cluster.durable_store(host),
            datalet_id,
            sync_every=self.spec.wal_sync_every,
            snapshot_every=self.spec.wal_snapshot_every,
        )

    def _sharedlog(self, sid: str) -> str:
        """Shard ``sid``'s shared-log sequencer (named by ``log_name``,
        as the coordinator's reshard arming addresses it), started on
        its own host the first time it is asked for."""
        log_id = self.sharedlogs.get(sid)
        if log_id is None:
            from repro.sharedlog import SharedLogActor, log_name  # local: keep import graph flat

            log_id = self.sharedlogs[sid] = log_name(sid)
            self.cluster.add_host(log_id, cpus=self.spec.host_cpus)
            self.cluster.add_actor(SharedLogActor(log_id), host=log_id)
        return log_id

    def _make_controlet(
        self,
        node_id: str,
        shard: ShardInfo,
        datalet: str,
        recovery_source: Optional[str] = None,
        start_cursor_at_tail: bool = False,
        datalet_colocated: bool = True,
        rejoin: bool = False,
    ) -> Controlet:
        cls = self.spec.controlet_class or CONTROLET_CLASSES[(shard.topology, shard.consistency)]
        # Each controlet gets a private copy of the shard view: the
        # authoritative one lives in the coordinator and reaches
        # controlets only via config_update messages.
        shard = ShardInfo.from_dict(shard.to_dict())
        kwargs: dict = {}
        if issubclass(cls, AAStrongControlet):
            kwargs["dlm"] = "dlm"
        elif issubclass(cls, AAEventualControlet):
            kwargs["sharedlog"] = self._sharedlog(shard.shard_id)
            kwargs["start_cursor_at_tail"] = start_cursor_at_tail
        active = self.active_coordinator()
        return cls(
            node_id,
            shard=shard,
            datalet=datalet,
            coordinator=active,
            config=self.spec.control,
            recovery_source=recovery_source,
            datalet_colocated=datalet_colocated,
            backup_coordinators=[n for n in self.coordinator_names() if n != active],
            rejoin=rejoin,
            **kwargs,
        )

    def _place_pair(
        self,
        shard: ShardInfo,
        replica: Replica,
        recovery_source: Optional[str] = None,
        start_cursor_at_tail: bool = False,
    ) -> None:
        """Place a controlet-datalet pair (``recovery_source``: a
        replacement that first copies that datalet's state).

        Default: colocated on the replica's host (the paper's 1:1
        mapping).  With ``controlet_hosts`` set, the datalet keeps its
        own host while the controlet is packed round-robin onto a
        dedicated controlet host (N:1 mapping) and watches its remote
        datalet's liveness itself.
        """
        if replica.host not in self.cluster._hosts:
            self.cluster.add_host(replica.host, cpus=self.spec.host_cpus, dpdk=self.spec.dpdk)
        self.cluster.add_actor(
            DataletActor(
                replica.datalet,
                self._make_engine(replica.datalet_kind),
                wal=self._make_wal(replica.host, replica.datalet),
            ),
            host=replica.host,
        )
        self._host_pairs[replica.host] = (shard.shard_id, replica)
        if self._controlet_hosts:
            ctl_host = self._controlet_hosts[next(self._ctl_rr) % len(self._controlet_hosts)]
            colocated = False
        else:
            ctl_host = replica.host
            colocated = True
        self.cluster.add_actor(
            self._make_controlet(
                replica.controlet,
                shard,
                replica.datalet,
                recovery_source=recovery_source,
                start_cursor_at_tail=start_cursor_at_tail,
                datalet_colocated=colocated,
            ),
            host=ctl_host,
        )

    def _build_shard(self, i: int, topology: Topology, consistency: Consistency) -> ShardInfo:
        """Shard ``s{i}``: ``spec.replicas`` pairs on fresh hosts, engine
        kinds cycled over ``spec.datalet_kinds`` by chain position."""
        kinds = self.spec.datalet_kinds
        shard = ShardInfo(f"s{i}", topology, consistency)
        for j in range(self.spec.replicas):
            shard.add_replica(Replica(f"c{i}.{j}", f"d{i}.{j}", f"node{i}.{j}",
                                      datalet_kind=kinds[j % len(kinds)]))
        # actors need the full shard view, so build them second pass
        for replica in shard.ordered():
            self._place_pair(shard, replica)
        return shard

    # ------------------------------------------------------------------
    # coordinator-injected factories
    # ------------------------------------------------------------------
    def _spawn_replacement(self, shard: ShardInfo, source_datalet: str) -> Optional[Replica]:
        """Launch a recovery-mode pair on a standby host (failover); the
        coordinator joins it as the new tail once it has recovered."""
        if not self._standbys:
            return None
        host = self._standbys.pop(0)
        suffix = f"fo{next(self._gen)}"
        kind = shard.tail.datalet_kind if shard.replicas else self.spec.datalet_kinds[0]
        replica = Replica(f"c.{shard.shard_id}.{suffix}", f"d.{shard.shard_id}.{suffix}",
                          host, datalet_kind=kind)
        self._place_pair(shard, replica, recovery_source=source_datalet,
                         start_cursor_at_tail=True)
        # the calling coordinator records the replica it gets back; the
        # standby mirrors it, so whichever coordinator is active when
        # recovery completes finalizes the join
        if self.standby is not None:
            self.standby.register_pending(shard.shard_id, replica)
        return replica

    def _spawn_transition(
        self, shard: ShardInfo, topology: Topology, consistency: Consistency
    ) -> ShardInfo:
        """Launch a parallel controlet generation over the same datalets
        (§V: "Two old and new controlets are mapped to one datalet
        during the transition phase")."""
        gen = next(self._gen)
        new_shard = ShardInfo(shard.shard_id, topology, consistency)
        for r in shard.ordered():
            new_shard.add_replica(Replica(f"{r.controlet}.g{gen}", r.datalet, r.host,
                                          datalet_kind=r.datalet_kind))
        for replica in new_shard.ordered():
            self.cluster.add_actor(
                self._make_controlet(
                    replica.controlet,
                    new_shard,
                    replica.datalet,
                    start_cursor_at_tail=True,
                ),
                host=replica.host,
            )
        return new_shard

    def _spawn_shard(self, topology: Topology, consistency: Consistency) -> Optional[ShardInfo]:
        """Launch a whole new shard of the given combo (online shard
        add) on fresh hosts.  It is *not* entered into the cluster map
        here: the coordinator does that when it opens the double-ring
        window."""
        return self._build_shard(next(self._shard_seq), topology, consistency)

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.cluster.start()

    def coordinator_names(self) -> List[str]:
        names = ["coordinator"]
        if self.standby is not None:
            names.append("coordinator.standby")
        return names

    def active_coordinator(self) -> str:
        """The coordinator currently holding failover authority."""
        if (
            self.standby is not None
            and self.standby.promoted
            and not self.cluster.is_host_alive("coordinator")
        ):
            return "coordinator.standby"
        return "coordinator"

    def client(self, name: str, **kwargs) -> KVClient:
        kwargs.setdefault("coordinator", self.coordinator_names())
        return KVClient(self.cluster, name, **kwargs)

    def shard(self, index: int) -> ShardInfo:
        return self.map.shard(f"s{index}")

    def replica_host(self, shard_index: int, chain_pos: int) -> str:
        replicas = self.shard(shard_index).replicas
        if 0 <= chain_pos < len(replicas):
            return replicas[chain_pos].host
        raise ConfigError(f"no replica at position {chain_pos} in shard s{shard_index}")

    def kill_replica(self, shard_index: int, chain_pos: int) -> str:
        """Crash the host of one replica (controlet + datalet die)."""
        host = self.replica_host(shard_index, chain_pos)
        self.cluster.kill_host(host)
        return host

    def recover_host(self, host: str):
        """Power-cycle a crashed replica host back up *from disk*.

        Unlike a thaw (``cluster.restart_host``), the old actor objects
        are torn down for good: a fresh engine is rebuilt by WAL replay
        from the host's DurableStore (which took seeded power-loss
        damage at crash time), then a fresh controlet rejoins in
        recovery mode and catches up from a surviving peer — so the
        node returns with recovered-but-stale state, exactly the
        durable crash-restart fault class.

        Returns a :class:`~repro.chaos.oracle.RecoveryRecord` (or None
        after falling back to a plain thaw for hosts without a durable
        pair registration).
        """
        from repro.chaos.oracle import RecoveryRecord  # local: avoid import cycle

        pair = self._host_pairs.get(host)
        if pair is None or not self.spec.durable:
            self.cluster.restart_host(host)
            return None
        shard_id, replica = pair
        crash_time = self.sim.now
        store = self.cluster.durable_store(host)
        if store.last_crash_at >= 0.0:  # -1.0 = the store never crashed
            crash_time = store.last_crash_at

        # the fsync watermark the dead datalet had promised — captured
        # from the old WAL object before it is forgotten
        old = self.cluster.actors.get(replica.datalet)
        durable_seq = 0
        if old is not None and getattr(old, "wal", None) is not None:
            durable_seq = old.wal.durable_seq

        # tear down the dead pair (a remote controlet on a shared ctl
        # host did not die with the datalet and is left alone)
        self.cluster.remove_actor(replica.datalet)
        ctl_died = (
            replica.controlet in self.cluster.actors
            and self.cluster.host_of(replica.controlet) == host
        )
        if ctl_died:
            self.cluster.remove_actor(replica.controlet)
        self.cluster.restart_host(host)

        # rebuild the engine from snapshot + surviving log records
        engine = self._make_engine(replica.datalet_kind)
        wal = self._make_wal(host, replica.datalet)
        replayed = wal.replay(engine)
        recovered = dict(engine.snapshot())
        self.cluster.add_actor(DataletActor(replica.datalet, engine, wal=wal), host=host)

        # pick a live peer to catch up from (None: recover solo)
        shard = self.map.shards.get(shard_id)
        source = None
        if shard is not None:
            for r in shard.ordered():
                if r.host != host and self.cluster.is_host_alive(r.host):
                    source = r.datalet
                    break
        if ctl_died:
            self.cluster.add_actor(
                self._make_controlet(
                    replica.controlet,
                    shard if shard is not None else ShardInfo(
                        shard_id, self.spec.topology, self.spec.consistency, [replica]
                    ),
                    replica.datalet,
                    recovery_source=source,
                    start_cursor_at_tail=True,
                    rejoin=True,
                ),
                host=host,
            )
        return RecoveryRecord(
            host=host,
            shard_id=shard_id,
            datalet=replica.datalet,
            crash_time=crash_time,
            recover_time=self.sim.now,
            durable_seq_at_crash=durable_seq,
            replayed_seq=replayed.applied_seq,
            snapshot_seq=replayed.snapshot_seq,
            records_applied=replayed.records_applied,
            torn_tail_dropped=replayed.torn_tail_dropped,
            recovered=recovered,
            catchup_source=source,
        )

    def request_transition(
        self, topology: Topology, consistency: Consistency, client_name: str = "admin"
    ):
        """Ask the coordinator to switch the whole deployment; returns a
        future resolving when every shard has flipped."""
        port = self.cluster.add_port(client_name)

        def proc():
            resp = yield port.request(
                "coordinator",
                "request_transition",
                {"topology": Topology(topology).value, "consistency": Consistency(consistency).value},
                timeout=120.0,
            )
            if resp.type != "transition_done":
                raise ConfigError(f"transition failed: {resp.payload}")
            return resp.payload["epoch"]

        return self.sim.spawn(proc())

    def request_reshard(self, action: str, shard: Optional[str] = None,
                        client_name: str = "reshard-admin"):
        """Ask the coordinator to add a shard (``action="add"``) or
        drain and remove one (``action="remove"``, with ``shard``);
        returns a future resolving to the reshard stats payload once
        the double-ring cutover commits."""
        # reuse the admin port across repeated reshards (soak schedules
        # drive several add/remove cycles through one deployment)
        port = self.cluster.actors.get(client_name)
        if port is None:
            port = self.cluster.add_port(client_name)

        def proc():
            payload = {"action": action}
            if shard is not None:
                payload["shard"] = shard
            resp = yield port.request(
                "coordinator", "request_reshard", payload, timeout=300.0
            )
            if resp.type != "reshard_done":
                raise ConfigError(f"reshard failed: {resp.payload}")
            return resp.payload

        return self.sim.spawn(proc())
