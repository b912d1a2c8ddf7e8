"""Unit/behavior tests for the KV client library (routing, retries,
per-request consistency, table API edge cases)."""

import pytest

from repro.core.types import Consistency, Topology
from repro.errors import BespoError, ConfigError, KeyNotFound
from repro.harness import Deployment, DeploymentSpec


def build(topology=Topology.MS, consistency=Consistency.STRONG, **kw):
    dep = Deployment(DeploymentSpec(shards=2, replicas=3, topology=topology,
                                    consistency=consistency, **kw))
    dep.start()
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    return dep, client


def test_ops_before_connect_rejected():
    dep = Deployment(DeploymentSpec(shards=1, replicas=1))
    dep.start()
    client = dep.client("c")
    fut = client.get("k")
    with pytest.raises(BespoError):
        dep.sim.run_future(fut)


def test_unknown_partitioner_rejected():
    with pytest.raises(ConfigError):
        DeploymentSpec(shards=1, replicas=1, partitioner="rendezvous")


def test_routing_writes_to_head_reads_to_tail_ms_sc():
    dep, client = build()
    shard = client.shard_for("key")
    assert client._route(shard, "put", None, None) == shard.head.controlet
    assert client._route(shard, "get", None, None) == shard.tail.controlet
    # relaxed read may hit any replica
    seen = {client._route(shard, "get", "eventual", None) for _ in range(50)}
    assert len(seen) > 1


def test_routing_ms_ec_reads_spread():
    dep, client = build(consistency=Consistency.EVENTUAL)
    shard = client.shard_for("key")
    seen = {client._route(shard, "get", None, None) for _ in range(50)}
    assert seen == set(shard.controlets())
    assert client._route(shard, "put", None, None) == shard.head.controlet


def test_routing_aa_spreads_everything():
    dep, client = build(topology=Topology.AA, consistency=Consistency.EVENTUAL)
    shard = client.shard_for("key")
    puts = {client._route(shard, "put", None, None) for _ in range(50)}
    assert len(puts) == 3


def test_prefer_kind_routing():
    dep, client = build(consistency=Consistency.EVENTUAL,
                        datalet_kinds=("ht", "lsm", "mt"))
    shard = client.shard_for("key")
    target = client._route(shard, "get", None, "lsm")
    replica = next(r for r in shard.ordered() if r.controlet == target)
    assert replica.datalet_kind == "lsm"
    # unknown kind falls back to any replica rather than failing
    assert client._route(shard, "get", None, "rocksdb") in shard.controlets()


def test_client_counts_ops_and_retries():
    dep, client = build()
    dep.sim.run_future(client.put("k", "v"))
    dep.sim.run_future(client.get("k"))
    assert client.ops == 2
    before = client.retries
    # force a retry by aiming at a stale map: kill the tail and read
    dep.kill_replica(0, 2)
    dep.sim.run_until(dep.sim.now + 12.0)
    for i in range(8):  # some keys route to the repaired shard
        try:
            dep.sim.run_future(client.get(f"k{i}"))
        except KeyNotFound:
            pass
    assert client.retries >= before


def test_scan_retries_past_a_retired_replica():
    """A retired controlet answers ``retired``: a scan backs off,
    refreshes and re-routes the way a point op does, instead of
    failing the whole scan on the first such reply."""
    dep = Deployment(DeploymentSpec(shards=1, replicas=3, topology=Topology.MS,
                                    consistency=Consistency.EVENTUAL,
                                    datalet_kinds=("mt",)))
    dep.start()
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    for i in range(5):
        dep.sim.run_future(client.put(f"k{i}", str(i)))
    dep.sim.run_until(dep.sim.now + 1.0)
    dep.cluster.actor("c0.1").retired = True
    for _ in range(20):
        assert dep.sim.run_future(client.get("k1")) == "1"
        items = dep.sim.run_future(client.scan("k0", "k9"))
        assert [k for k, _ in items] == [f"k{i}" for i in range(5)]


def test_scan_times_out_refreshes_and_retries_after_a_host_dies():
    """Kill the host serving a scan leg while the request is in flight:
    the leg times out, the client refreshes its map and retries on
    another replica, and the scan completes with every item."""
    dep = Deployment(DeploymentSpec(shards=2, replicas=3, topology=Topology.MS,
                                    consistency=Consistency.EVENTUAL,
                                    datalet_kinds=("mt",), partitioner="range"))
    dep.start()
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    keys = [f"{c}{i}" for c in "bx" for i in range(4)]
    for k in keys:
        dep.sim.run_future(client.put(k, k.upper()))
    dep.sim.run_until(dep.sim.now + 1.0)
    chosen = []
    route = client._route
    client._route = lambda *a, **kw: chosen.append(route(*a, **kw)) or chosen[-1]
    refreshes, timeouts = client.refreshes, client.timeouts
    fut = client.scan("a", "z")
    while not chosen:
        dep.sim.step_one()
    victim = chosen[0]
    host = next(r.host for sid in dep.map.shard_ids()
                for r in dep.map.shard(sid).ordered() if r.controlet == victim)
    dep.cluster.kill_host(host)
    items = dep.sim.run_future(fut)
    assert items == sorted((k, k.upper()) for k in keys)
    assert client.timeouts > timeouts
    assert client.refreshes > refreshes
    assert chosen.count(victim) < len(chosen)


def test_epoch_visible_after_connect():
    dep, client = build()
    assert client.map.epoch == dep.map.epoch


def test_auto_refresh_picks_up_new_epoch():
    dep, client = build()
    client.auto_refresh(0.5)
    epoch0 = client.map.epoch
    dep.kill_replica(0, 2)  # coordinator bumps epoch during failover
    dep.sim.run_until(dep.sim.now + 12.0)
    assert client.map.epoch > epoch0


def test_delete_table_removes_all_rows_with_mt():
    dep = Deployment(DeploymentSpec(shards=2, replicas=2, topology=Topology.MS,
                                    consistency=Consistency.EVENTUAL,
                                    datalet_kinds=("mt",)))
    dep.start()
    client = dep.client("c")
    sim = dep.sim
    sim.run_future(client.connect())
    sim.run_future(client.create_table("t"))
    for i in range(10):
        sim.run_future(client.table_put(f"k{i}", str(i), "t"))
    sim.run_until(sim.now + 1.0)
    sim.run_future(client.delete_table("t"))
    sim.run_until(sim.now + 1.0)
    from repro.errors import TableNotFound

    with pytest.raises(TableNotFound):
        sim.run_future(client.table_get("k1", "t"))
    # rows are actually gone from the engines
    total = sum(
        sum(1 for k, _ in dep.cluster.actor(r.datalet).engine.items() if k.startswith("t:"))
        for sid in dep.map.shard_ids()
        for r in dep.map.shard(sid).ordered()
    )
    assert total == 0


def test_table_cache_invalidated_on_delete():
    dep, client = build(consistency=Consistency.EVENTUAL)
    sim = dep.sim
    sim.run_future(client.connect())
    sim.run_future(client.create_table("t"))
    sim.run_future(client.table_put("a", "1", "t"))
    sim.run_future(client.delete_table("t"))
    from repro.errors import TableNotFound

    with pytest.raises(TableNotFound):
        sim.run_future(client.table_put("b", "2", "t"))
