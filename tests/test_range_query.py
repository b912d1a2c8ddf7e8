"""Tests for the §IV-B controlet-side range-query service."""

import pytest

from repro.core.range_query import RangeQueryControlet
from repro.core.types import Consistency, Topology
from repro.harness import Deployment, DeploymentSpec
from repro.harness.loadgen import preload


def build(shards=3):
    dep = Deployment(
        DeploymentSpec(
            shards=shards, replicas=3,
            topology=Topology.MS, consistency=Consistency.EVENTUAL,
            datalet_kinds=("mt",), partitioner="range",
            controlet_class=RangeQueryControlet,
        )
    )
    dep.start()
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    port = dep.cluster.add_port("raw")
    return dep, client, port


def load(dep, client):
    keys = [f"{c}{i:02d}" for c in "adhkpt" for i in range(8)]
    futs = [client.put(k, k.upper()) for k in keys]
    dep.sim.run_future(dep.sim.gather(futs))
    dep.sim.run_until(dep.sim.now + 1.5)  # map refresh + EC settle
    return keys


def ask(dep, port, controlet, payload):
    return dep.sim.run_future(port.request(controlet, "get_range", payload, timeout=5.0))


def test_cross_shard_range_through_any_controlet():
    dep, client, port = build()
    keys = load(dep, client)
    entry = dep.shard(1).ordered()[1].controlet  # arbitrary non-head
    resp = ask(dep, port, entry, {"start": "d00", "end": "p04"})
    assert resp.type == "range"
    expect = sorted((k, k.upper()) for k in keys if "d00" <= k < "p04")
    assert [tuple(i) for i in resp.payload["items"]] == expect
    # the range spanned multiple shards
    assert len({client.shard_for(k).shard_id for k, _ in expect}) > 1


def test_get_range_after_a_shard_view_install():
    """A shard-view install (``shard_info``/``config_update``) names the
    partitioner as a string; it must leave the routing the range
    service covers with alone, so a ``get_range`` right after one is
    served instead of raising inside the simulator."""
    dep, client, port = build()
    keys = load(dep, client)
    entry = dep.shard(1).ordered()[1].controlet
    actor = dep.cluster.actor(entry)
    actor._install_shard(actor.shard, {"partitioner": "range"})
    resp = ask(dep, port, entry, {"start": "d00", "end": "p04"})
    assert resp.type == "range"
    assert [k for k, _ in resp.payload["items"]] == sorted(
        k for k in keys if "d00" <= k < "p04")


def test_client_server_scan_retries_until_the_map_is_there():
    """``KVClient.server_scan`` at boot: the entry shard's controlets
    have not polled the cluster map yet, answer ``cluster map not yet
    available``, and the client backs off and retries through its one
    attempt loop; a later cross-shard range is fanned out server-side."""
    dep = Deployment(
        DeploymentSpec(
            shards=3, replicas=3,
            topology=Topology.MS, consistency=Consistency.EVENTUAL,
            datalet_kinds=("mt",), partitioner="range",
            controlet_class=RangeQueryControlet,
        )
    )
    dep.start()
    keys = [f"{c}{i:02d}" for c in "adhkpstx" for i in range(4)]
    preload(dep, {k: k.upper() for k in keys})
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    entry = client.shard_for("s00")
    assert all(dep.cluster.actor(r.controlet)._cluster_map is None
               for r in entry.ordered())
    items = dep.sim.run_future(client.server_scan("s00", "z"))
    assert items == [(k, k.upper()) for k in keys if k >= "s00"]
    assert client.retries >= 1
    items = dep.sim.run_future(client.server_scan("d01", "t02", limit=9))
    assert items == [(k, k.upper()) for k in keys if "d01" <= k < "t02"][:9]
    assert len({client.shard_for(k).shard_id for k, _ in items}) > 1


def test_limit_applied_after_merge():
    dep, client, port = build()
    load(dep, client)
    entry = dep.shard(0).head.controlet
    resp = ask(dep, port, entry, {"start": "a00", "end": "z99", "limit": 7})
    items = resp.payload["items"]
    assert len(items) == 7
    assert [k for k, _ in items] == sorted(k for k, _ in items)


def test_empty_range():
    dep, client, port = build()
    load(dep, client)
    entry = dep.shard(0).head.controlet
    resp = ask(dep, port, entry, {"start": "z", "end": "a"})
    assert resp.type == "range" and resp.payload["items"] == []


def test_counts_range_queries():
    dep, client, port = build()
    load(dep, client)
    entry = dep.shard(0).head.controlet
    ask(dep, port, entry, {"start": "a", "end": "e"})
    ask(dep, port, entry, {"start": "a", "end": "e"})
    assert dep.cluster.actor(entry).stats["range_queries"] == 2


def test_map_not_ready_yields_clean_error():
    dep = Deployment(
        DeploymentSpec(shards=1, replicas=1, topology=Topology.MS,
                       consistency=Consistency.EVENTUAL,
                       datalet_kinds=("mt",), controlet_class=RangeQueryControlet)
    )
    # deliberately do NOT start the cluster-wide actors beyond placement:
    # ask before the map-refresh round trip completes
    dep.start()
    port = dep.cluster.add_port("raw")
    fut = port.request(dep.shard(0).head.controlet, "get_range",
                       {"start": "a", "end": "z"}, timeout=5.0)
    resp = dep.sim.run_future(fut)
    # either the map arrived in time (range) or the error is clean
    assert resp.type in ("range", "error")


def test_failover_mid_scan_then_recovers():
    """Kill a sub-scan target mid-query: the in-flight range query fails
    cleanly (no hang), and after failover + map refresh the same range
    succeeds with the full result set from the replacement tail."""
    dep = Deployment(
        DeploymentSpec(
            shards=3, replicas=3, standbys=2,
            topology=Topology.MS, consistency=Consistency.EVENTUAL,
            datalet_kinds=("mt",), partitioner="range",
            controlet_class=RangeQueryControlet,
        )
    )
    dep.start()
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    port = dep.cluster.add_port("raw")
    keys = load(dep, client)

    # the whole-keyspace range fans out to every shard's tail; kill one
    # tail while the query is in flight
    entry = dep.shard(0).head.controlet
    fut = port.request(entry, "get_range", {"start": "a00", "end": "z99"},
                       timeout=30.0)
    dep.sim.run_until(dep.sim.now + 0.001)  # let sub-scans get issued
    dep.kill_replica(1, chain_pos=len(dep.shard(1).replicas) - 1)  # tail
    resp = dep.sim.run_future(fut)
    # the dead sub-scan surfaces as a clean error or (if the scan beat
    # the kill on the wire) the complete result — never a hang
    assert resp.type in ("range", "error")

    # after failover the refreshed map routes to the replacement tail
    dep.sim.run_until(dep.sim.now + 12.0)
    resp = ask(dep, port, entry, {"start": "a00", "end": "z99"})
    assert resp.type == "range"
    assert [k for k, _ in resp.payload["items"]] == sorted(keys)


def test_plain_kv_ops_still_work_with_subclass():
    dep, client, port = build(shards=2)
    dep.sim.run_future(client.put("hello", "world"))
    dep.sim.run_until(dep.sim.now + 1.0)
    assert dep.sim.run_future(client.get("hello")) == "world"
