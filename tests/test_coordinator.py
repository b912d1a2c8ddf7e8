"""Unit tests for the coordinator actor (metadata, liveness, repair)."""

import pytest

from repro.coordinator import CoordinatorActor
from repro.core.config import ControlConfig
from repro.core.types import ClusterMap, Consistency, Replica, ShardInfo, Topology
from repro.errors import ConfigError
from repro.harness import Deployment, DeploymentSpec
from repro.net import SimCluster


def make_coordinator(spawner=None):
    cmap = ClusterMap()
    cmap.shards["s0"] = ShardInfo(
        "s0", Topology.MS, Consistency.STRONG,
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
    assert coord.snapshot_state()["pending_replicas"] == []


def test_transition_without_spawner_errors():
    cluster, coord, port = make_coordinator()
    resp = cluster.sim.run_future(
        port.request("coordinator", "request_transition",
                     {"topology": "aa", "consistency": "eventual"}))
    assert resp.type == "error"


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
