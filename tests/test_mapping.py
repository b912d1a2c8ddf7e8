"""Tests for the N:1 controlet:datalet mapping (split placement)."""

import pytest

from repro.core.types import Consistency, Topology
from repro.errors import ConfigError
from repro.harness import Deployment, DeploymentSpec


def build_split(controlet_hosts=2, **kw):
    dep = Deployment(
        DeploymentSpec(
            shards=2, replicas=3,
            topology=kw.pop("topology", Topology.MS),
            consistency=kw.pop("consistency", Consistency.EVENTUAL),
            controlet_hosts=controlet_hosts, **kw,
        )
    )
    dep.start()
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    return dep, client


def test_controlets_packed_on_dedicated_hosts():
    dep, client = build_split(controlet_hosts=2)
    ctl_hosts = {dep.cluster.host_of(r.controlet)
                 for sid in dep.map.shard_ids()
                 for r in dep.map.shard(sid).ordered()}
    assert ctl_hosts == {"ctl0", "ctl1"}  # 6 controlets on 2 hosts
    # datalets keep their own hosts
    data_hosts = {dep.cluster.host_of(r.datalet)
                  for sid in dep.map.shard_ids()
                  for r in dep.map.shard(sid).ordered()}
    assert len(data_hosts) == 6
    assert not (ctl_hosts & data_hosts)


def test_split_placement_serves_requests():
    dep, client = build_split()
    dep.sim.run_future(client.put("k", "v"))
    dep.sim.run_until(dep.sim.now + 1.0)
    assert dep.sim.run_future(client.get("k")) == "v"


def test_split_placement_strong_consistency_end_to_end():
    dep, client = build_split(consistency=Consistency.STRONG)
    dep.sim.run_future(client.put("k", "v"))
    shard = client.shard_for("k")
    assert dep.cluster.actor(shard.tail.datalet).engine.get("k") == "v"


def test_datalet_failure_detected_and_repaired():
    """Killing a datalet's host leaves the (remote) controlet alive;
    the controlet's strikes report the failure and the coordinator
    repairs the shard + retires the orphan."""
    dep, client = build_split(consistency=Consistency.STRONG)
    for i in range(10):
        dep.sim.run_future(client.put(f"k{i}", str(i)))
    shard0 = dep.shard(0)
    victim = shard0.head  # head datalet dies, controlet survives
    dep.cluster.kill_host(victim.host)

    # keep writing so the head controlet accumulates datalet strikes
    def writer():
        for i in range(60):
            try:
                yield client.put(f"w{i}", str(i))
            except Exception:  # noqa: BLE001
                pass
            yield 0.25

    dep.sim.run_future(dep.sim.spawn(writer()))
    dep.sim.run_until(dep.sim.now + 10.0)
    shard = dep.shard(0)
    assert victim.controlet not in shard.controlets()
    orphan = dep.cluster.actor(victim.controlet)
    assert orphan.retired
    # shard still serves strongly-consistent traffic
    dep.sim.run_future(client.put("post", "repair"))
    assert dep.sim.run_future(client.get("post")) == "repair"


def test_invalid_controlet_hosts():
    with pytest.raises(ConfigError):
        DeploymentSpec(controlet_hosts=0)


def test_colocated_default_unchanged():
    dep = Deployment(DeploymentSpec(shards=1, replicas=2))
    for r in dep.shard(0).ordered():
        assert dep.cluster.host_of(r.controlet) == dep.cluster.host_of(r.datalet)
        assert dep.cluster.actor(r.controlet).datalet_colocated


def test_replacement_pair_is_placed_like_a_boot_pair():
    """A failover replacement goes through the same placement as every
    boot pair: its datalet takes the standby host, its controlet is
    packed onto a dedicated controlet host and watches the datalet
    remotely, and it joins the chain as the new tail."""
    dep, client = build_split(consistency=Consistency.STRONG)
    for i in range(10):
        dep.sim.run_future(client.put(f"k{i}", str(i)))
    victim = dep.shard(0).tail
    dep.cluster.kill_host(victim.host)

    def writer():
        for i in range(60):
            try:
                yield client.put(f"w{i}", str(i))
            except Exception:  # noqa: BLE001
                pass
            yield 0.25

    dep.sim.run_future(dep.sim.spawn(writer()))
    dep.sim.run_until(dep.sim.now + 20.0)
    shard = dep.shard(0)
    assert len(shard.replicas) == 3 and victim.controlet not in shard.controlets()
    new = shard.tail
    assert new.host.startswith("standby")
    assert dep.cluster.host_of(new.datalet) == new.host
    assert dep.cluster.host_of(new.controlet) in {"ctl0", "ctl1"}
    assert not dep.cluster.actor(new.controlet).datalet_colocated
    assert [r.chain_pos for r in shard.replicas] == [0, 1, 2]
    for i in range(10):
        assert dep.sim.run_future(client.get(f"k{i}")) == str(i)
