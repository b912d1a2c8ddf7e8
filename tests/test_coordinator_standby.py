"""Tests for coordinator primary/standby resilience (§VII)."""

import pytest

from repro.core.types import Consistency, Topology
from repro.harness import Deployment, DeploymentSpec


def build(**kw):
    dep = Deployment(
        DeploymentSpec(
            shards=2, replicas=3,
            topology=Topology.MS, consistency=Consistency.EVENTUAL,
            coordinator_standby=True, **kw,
        )
    )
    dep.start()
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    return dep, client


def test_standby_mirrors_cluster_map():
    dep, client = build()
    dep.sim.run_until(3.0)
    assert dep.standby.map.shard_ids() == dep.map.shard_ids()
    assert dep.standby.map.epoch == dep.map.epoch
    assert not dep.standby.promoted


def test_standby_serves_metadata_reads():
    dep, client = build()
    dep.sim.run_until(2.0)
    port = dep.cluster.add_port("probe")
    resp = dep.sim.run_future(
        port.request("coordinator.standby", "get_cluster_map", {}))
    assert resp.type == "cluster_map"


@pytest.mark.parametrize("request_type,payload", [
    ("request_transition", {"topology": "aa", "consistency": "eventual"}),
    ("request_reshard", {"action": "add"}),
], ids=["transition", "reshard"])
def test_standby_refuses_transitions_while_following(request_type, payload):
    """A following standby must not run a transition or a reshard on
    its mirrored view: that would split the ring from the primary's."""
    dep, client = build()
    dep.sim.run_until(2.0)
    port = dep.cluster.add_port("probe")
    resp = dep.sim.run_future(
        port.request("coordinator.standby", request_type, payload, timeout=5.0))
    assert resp.type == "error" and "standby" in resp.payload["error"]
    dep.sim.run_until(dep.sim.now + 1.0)
    assert dep.standby.view.ring_gen == dep.coordinator.view.ring_gen == 0
    assert dep.standby.map.shard_ids() == dep.map.shard_ids() == ["s0", "s1"]


def test_primary_death_promotes_standby():
    dep, client = build()
    dep.sim.run_until(2.0)
    dep.cluster.kill_host("coordinator")
    dep.sim.run_until(dep.sim.now + 8.0)
    assert dep.standby.promoted
    assert dep.active_coordinator() == "coordinator.standby"


def test_client_fails_over_to_standby():
    dep, client = build()
    dep.sim.run_until(2.0)
    dep.cluster.kill_host("coordinator")
    dep.sim.run_until(dep.sim.now + 8.0)
    # a refresh must succeed via the standby
    epoch = dep.sim.run_future(client.connect())
    assert epoch == dep.standby.map.epoch
    assert client.coordinators[0] == "coordinator.standby"
    # and normal ops keep working
    dep.sim.run_future(client.put("k", "v"))
    dep.sim.run_until(dep.sim.now + 1.0)
    assert dep.sim.run_future(client.get("k")) == "v"


def test_promoted_standby_repairs_replica_failures():
    """The full §VII story: primary dies, standby promotes, a replica
    dies, the standby orchestrates repair + replacement recovery."""
    dep, client = build()
    for i in range(10):
        dep.sim.run_future(client.put(f"k{i}", str(i)))
    dep.sim.run_until(dep.sim.now + 2.0)
    dep.cluster.kill_host("coordinator")
    dep.sim.run_until(dep.sim.now + 8.0)
    assert dep.standby.promoted

    victim_host = dep.standby.map.shard("s0").tail.host
    dep.cluster.kill_host(victim_host)
    dep.sim.run_until(dep.sim.now + 15.0)
    shard = dep.standby.map.shard("s0")
    assert dep.standby.failovers >= 1
    assert len(shard.replicas) == 3  # replacement joined under the standby
    # data survived and is served
    dep.sim.run_future(client.connect())
    assert dep.sim.run_future(client.get("k3")) == "3"


def test_primary_death_mid_failover_standby_completes_repair():
    """Worst-case handoff: a replica dies, the primary starts the
    repair (replacement spawned, recovery in flight), then the primary
    itself dies.  The promoted standby must finish the repair — the
    replacement reported ``recovery_done`` to both coordinators and the
    standby holds the same pending-replica bookkeeping."""
    dep, client = build()
    for i in range(10):
        dep.sim.run_future(client.put(f"k{i}", str(i)))
    dep.sim.run_until(dep.sim.now + 2.0)

    victim_host = dep.map.shard("s0").tail.host
    dep.cluster.kill_host(victim_host)
    # step in small increments and kill the primary the instant it has
    # begun the failover, while replacement recovery is still in flight
    deadline = dep.sim.now + 10.0
    while dep.coordinator.failovers == 0 and dep.sim.now < deadline:
        dep.sim.run_until(dep.sim.now + 0.25)
    assert dep.coordinator.failovers >= 1
    dep.cluster.kill_host("coordinator")

    dep.sim.run_until(dep.sim.now + 20.0)
    assert dep.standby.promoted
    shard = dep.standby.map.shard("s0")
    assert len(shard.replicas) == 3  # the in-flight repair completed
    assert victim_host not in {r.host for r in shard.replicas}
    # and the repaired shard serves all the data through the standby
    dep.sim.run_future(client.connect())
    for i in range(10):
        assert dep.sim.run_future(client.get(f"k{i}")) == str(i)


def test_no_promotion_while_primary_alive():
    dep, client = build()
    dep.sim.run_until(20.0)
    assert not dep.standby.promoted
    assert dep.active_coordinator() == "coordinator"


def test_standby_disabled_by_default():
    dep = Deployment(DeploymentSpec(shards=1, replicas=2))
    assert dep.standby is None
    assert dep.coordinator_names() == ["coordinator"]
