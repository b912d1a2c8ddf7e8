"""Unit tests for the coordinator actor (metadata, liveness, repair)."""

import pytest

from repro.coordinator import CoordinatorActor
from repro.core.config import ControlConfig
from repro.core.types import ClusterMap, Consistency, Replica, ShardInfo, Topology
from repro.errors import ConfigError
from repro.harness import Deployment, DeploymentSpec
from repro.net import SimCluster
from repro.net.actor import Actor


def make_coordinator(spawner=None, topology=Topology.MS):
    cmap = ClusterMap()
    cmap.shards["s0"] = ShardInfo(
        "s0", topology, Consistency.STRONG,
        [Replica("c1", "d1", "h1", 0), Replica("c2", "d2", "h2", 1),
         Replica("c3", "d3", "h3", 2)],
    )
    cluster = SimCluster()
    coord = CoordinatorActor("coordinator", cluster_map=cmap,
                             config=ControlConfig(), spawner=spawner)
    cluster.add_actor(coord)
    port = cluster.add_port("client")
    cluster.start()
    return cluster, coord, port


def test_get_cluster_map():
    cluster, coord, port = make_coordinator()
    resp = cluster.sim.run_future(port.request("coordinator", "get_cluster_map", {}))
    cmap = ClusterMap.from_dict(resp.payload["map"])
    assert cmap.shard("s0").controlets() == ["c1", "c2", "c3"]


def test_get_shard_info_known_and_unknown():
    cluster, coord, port = make_coordinator()
    resp = cluster.sim.run_future(
        port.request("coordinator", "get_shard_info", {"shard": "s0"}))
    assert resp.type == "shard_info"
    resp = cluster.sim.run_future(
        port.request("coordinator", "get_shard_info", {"shard": "nope"}))
    assert resp.type == "error"


def test_heartbeats_update_liveness():
    cluster, coord, port = make_coordinator()
    cluster.sim.run_until(0.5)
    port.send("coordinator", "heartbeat", {"controlet": "c1", "datalet": "d1", "shard": "s0"})
    cluster.sim.run_until(1.0)
    assert coord._last_seen["c1"] >= 0.5


def test_missing_heartbeats_trigger_chain_repair():
    """No controlet ever heartbeats, so the sweep eventually declares
    them all dead and the shard drains (no spawner: no replacements)."""
    cluster, coord, port = make_coordinator()
    cluster.sim.run_until(20.0)
    assert coord.failovers == 3
    assert coord.map.shard("s0").replicas == []


def test_heartbeating_controlet_survives_sweep():
    cluster, coord, port = make_coordinator()

    def beat():
        port.send("coordinator", "heartbeat",
                  {"controlet": "c1", "datalet": "d1", "shard": "s0"})

    for t in range(1, 20):
        cluster.sim.call_later(float(t), beat)
    cluster.sim.run_until(19.0)
    survivors = coord.map.shard("s0").controlets()
    assert survivors == ["c1"]  # c2/c3 died, c1 promoted to head
    assert coord.leader_elect("s0") == "c1"


def test_leader_elect_after_head_failure():
    cluster, coord, port = make_coordinator()
    shard = coord.map.shard("s0")
    coord._handle_failure(shard, shard.head)
    assert coord.leader_elect("s0") == "c2"
    assert [r.chain_pos for r in shard.ordered()] == [0, 1]
    assert coord.map.epoch == 1


def test_recovery_done_without_pending_is_ignored():
    cluster, coord, port = make_coordinator()
    port.send("coordinator", "recovery_done", {"controlet": "ghost", "shard": "s0"})
    cluster.sim.run_until(0.5)
    assert len(coord.map.shard("s0").replicas) == 3


def test_register_pending_then_recovery_done_joins_as_tail():
    cluster, coord, port = make_coordinator()
    coord.register_pending("s0", Replica("c4", "d4", "h4", 99))
    # a replacement whose shard is gone is dropped, not left pending
    coord.register_pending("gone", Replica("c5", "d5", "h5", 0))
    assert coord.snapshot_state()["recovering"] == {"c4": "s0", "c5": "gone"}
    for c in ("c4", "c5"):
        port.send("coordinator", "recovery_done", {"controlet": c, "shard": "s0"})
    cluster.sim.run_until(0.5)
    assert coord.map.shard("s0").tail.controlet == "c4"
    assert coord.map.shard("s0").tail.chain_pos == 3
    assert coord.snapshot_state()["recovering"] == {}


def test_aa_sc_second_death_during_join_first_recovery_spawns_again():
    """An AA+SC join-first replacement is a shard member while it
    recovers.  A second death in that window must still spawn, and the
    new spawn must not recover from the replacement (it may lack
    committed writes)."""
    spawned = []

    def spawner(shard, source):
        spawned.append(source)
        n = len(spawned)
        return Replica(f"r{n}", f"rd{n}", f"rh{n}", 0)

    cluster, coord, port = make_coordinator(spawner, topology=Topology.AA)
    shard = coord.map.shard("s0")
    coord._handle_failure(shard, shard.replica_of("c3"))
    assert shard.controlets() == ["c1", "c2", "r1"]  # joined first
    coord._handle_failure(shard, shard.replica_of("c2"))
    assert len(spawned) == 2
    assert spawned[1] != "rd1"
    assert shard.controlets() == ["c1", "r1", "r2"]


def test_transition_without_spawner_errors():
    cluster, coord, port = make_coordinator()
    resp = cluster.sim.run_future(
        port.request("coordinator", "request_transition",
                     {"topology": "aa", "consistency": "eventual"}))
    assert resp.type == "error"


class StubControlet(Actor):
    """Stands in for a controlet: records the coordinator's orders (not
    its config pushes) and answers none of them; the test sends its acks."""

    def __init__(self, node_id):
        super().__init__(node_id)
        self.orders = []

    def on_unhandled(self, msg):
        if msg.type != "config_update":
            self.orders.append(msg.type)


def stub_cluster(shards, silent, **coord_kwargs):
    """A coordinator over MS+SC ``shards`` (shard id -> controlet ids) of
    stub controlets; every controlet but the ``silent`` ones heartbeats
    each second."""
    cmap = ClusterMap()
    for sid, cs in shards.items():
        cmap.shards[sid] = ShardInfo(sid, Topology.MS, Consistency.STRONG, [
            Replica(c, "d" + c[1:], "h" + c[1:], pos) for pos, c in enumerate(cs)])
    cluster = SimCluster()
    coord = CoordinatorActor("coordinator", cluster_map=cmap, config=ControlConfig(),
                             **coord_kwargs)
    cluster.add_actor(coord)
    port = cluster.add_port("client")
    stubs = {c: StubControlet(c) for cs in shards.values() for c in cs}
    for stub in stubs.values():
        cluster.add_actor(stub)
    cluster.start()

    def beat():
        for c in stubs:
            if c not in silent:
                port.send("coordinator", "heartbeat", {"controlet": c})

    for t in range(1, 20):
        cluster.sim.call_later(float(t), beat)
    return cluster, coord, port, stubs


def test_two_replicas_of_a_draining_shard_silent_in_one_sweep():
    """c2 never acks the drain order, c3 acks it, and both fall silent
    in the same sweep.  The shard flips once both deaths are applied, to
    the new service minus both counterparts, and both refills spawn the
    new combo: no old-combo replacement joins the flipped chain."""
    spawned = []

    def spawner(shard, source):
        spawned.append((shard.topology, shard.consistency))
        return Replica(f"r{len(spawned)}", f"rd{len(spawned)}", f"rh{len(spawned)}", 0)

    def transition_spawner(shard, topology, consistency):
        return ShardInfo(shard.shard_id, topology, consistency, [
            Replica("n" + r.controlet[1:], r.datalet, r.host, r.chain_pos)
            for r in shard.ordered()])

    cluster, coord, port, stubs = stub_cluster(
        {"s0": ["c1", "c2", "c3"]}, silent={"c2", "c3"},
        spawner=spawner, transition_spawner=transition_spawner)
    fut = port.request("coordinator", "request_transition",
                       {"topology": "ms", "consistency": "eventual"})
    for c in ("c1", "c3"):
        cluster.sim.call_later(1.0, lambda c=c: stubs[c].send(
            "coordinator", "transition_ready", {"controlet": c, "shard": "s0"}))
    cluster.sim.run_until(5.0)
    assert coord.failovers == 2  # both deaths in one sweep tick (t > 3 s)
    assert fut.done and fut.result().type == "transition_done"
    shard = coord.map.shard("s0")
    assert (shard.topology, shard.consistency) == (Topology.MS, Consistency.EVENTUAL)
    assert shard.controlets() == ["n1"]
    assert spawned == [(Topology.MS, Consistency.EVENTUAL)] * 2
    assert stubs["c1"].orders == ["transition_start", "retire"]


def test_reshard_counts_each_source_once_at_its_current_head():
    """s0's head acks its migration order and dies; the promoted head is
    ordered again and its counts replace the first ones, and a late
    ``migrate_done`` from the old head is not counted for the new order."""
    def reshard_spawner(topology, consistency):
        return ShardInfo("s2", topology, consistency, [Replica("c7", "d7", "h7", 0)])

    cluster, coord, port, stubs = stub_cluster(
        {"s0": ["c1", "c2", "c3"], "s1": ["c4", "c5", "c6"]}, silent={"c1"},
        reshard_spawner=reshard_spawner)
    fut = port.request("coordinator", "request_reshard", {"action": "add"})

    def done(c, sid, moved, skipped):
        stubs[c].send("coordinator", "migrate_done",
                      {"shard": sid, "moved": moved, "skipped": skipped,
                       "total": moved + skipped})

    cluster.sim.call_later(0.5, lambda: done("c1", "s0", 5, 1))
    cluster.sim.call_later(4.5, lambda: done("c1", "s0", 5, 1))  # stale: s0 now heads at c2
    cluster.sim.call_later(5.0, lambda: done("c2", "s0", 5, 1))
    cluster.sim.call_later(5.0, lambda: done("c4", "s1", 3, 0))
    for c in ("c2", "c3", "c4", "c5", "c6"):
        cluster.sim.call_later(6.0, lambda c=c: stubs[c].send(
            "coordinator", "reshard_fenced", {"controlet": c}))
    cluster.sim.run_until(7.0)
    assert stubs["c1"].orders == ["reshard_migrate"]
    assert "reshard_migrate" in stubs["c2"].orders
    resp = fut.result()
    assert resp.type == "reshard_done"
    assert (resp.payload["moved"], resp.payload["skipped"], resp.payload["total"]) == (8, 1, 9)


def test_deployment_spec_validation():
    with pytest.raises(ConfigError):
        DeploymentSpec(shards=0)
    with pytest.raises(ConfigError):
        DeploymentSpec(replicas=0)
    with pytest.raises(ConfigError):
        DeploymentSpec(datalet_kinds=())
    spec = DeploymentSpec(topology="aa", consistency="strong")
    assert spec.topology is Topology.AA


def test_deployment_replica_host_lookup():
    dep = Deployment(DeploymentSpec(shards=1, replicas=2))
    assert dep.replica_host(0, 0) == "node0.0"
    with pytest.raises(ConfigError):
        dep.replica_host(0, 7)
