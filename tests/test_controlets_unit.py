"""Focused controlet-level tests (wired manually, no Deployment)."""

import pytest

from repro.core.aa_sc import AAStrongControlet
from repro.core.config import ControlConfig
from repro.core.ms_ec import MSEventualControlet
from repro.core.ms_sc import MSStrongControlet
from repro.core.types import Consistency, Replica, ShardInfo, Topology
from repro.datalet import DataletActor, HashTableEngine
from repro.dlm import LockManagerActor
from repro.net import SimCluster


def shard_info(topology, consistency, n=3):
    return ShardInfo(
        "s0", topology, consistency,
        [Replica(f"c{i}", f"d{i}", f"h{i}", i) for i in range(n)],
    )


def wire(cls, topology, consistency, n=3, config=None, **extra):
    cluster = SimCluster()
    shard = shard_info(topology, consistency, n)
    config = config or ControlConfig()
    for i in range(n):
        cluster.add_actor(DataletActor(f"d{i}", HashTableEngine()), host=f"h{i}")
        cluster.add_actor(
            cls(f"c{i}", shard=ShardInfo.from_dict(shard.to_dict()), datalet=f"d{i}",
                coordinator="nocoord", config=config, **extra),
            host=f"h{i}",
        )
    port = cluster.add_port("client")
    cluster.start()
    return cluster, port, shard


# ---------------------------------------------------------------------------
# MS+SC
# ---------------------------------------------------------------------------
def test_chain_put_applies_in_chain_order():
    cluster, port, shard = wire(MSStrongControlet, Topology.MS, Consistency.STRONG)
    resp = cluster.sim.run_future(port.request("c0", "put", {"key": "k", "val": "v"}))
    assert resp.type == "ok"
    for i in range(3):
        assert cluster.actor(f"d{i}").engine.get("k") == "v"


def test_chain_rejects_write_at_non_head():
    cluster, port, shard = wire(MSStrongControlet, Topology.MS, Consistency.STRONG)
    resp = cluster.sim.run_future(port.request("c1", "put", {"key": "k", "val": "v"}))
    assert resp.payload["error"] == "redirect" and resp.payload["to"] == "c0"


def test_chain_del_missing_key_error_propagates():
    cluster, port, shard = wire(MSStrongControlet, Topology.MS, Consistency.STRONG)
    resp = cluster.sim.run_future(port.request("c0", "del", {"key": "ghost"}))
    assert resp.type == "error" and resp.payload["error"] == "not_found"


def test_chain_single_replica_degenerate():
    cluster, port, shard = wire(MSStrongControlet, Topology.MS, Consistency.STRONG, n=1)
    resp = cluster.sim.run_future(port.request("c0", "put", {"key": "k", "val": "v"}))
    assert resp.type == "ok"
    resp = cluster.sim.run_future(port.request("c0", "get", {"key": "k"}))
    assert resp.payload["val"] == "v"  # head == tail


def test_chain_write_fails_cleanly_when_successor_gone():
    config = ControlConfig(replication_timeout=0.2)
    cluster, port, shard = wire(MSStrongControlet, Topology.MS, Consistency.STRONG,
                                config=config)
    cluster.kill_host("h1")  # mid dies; no coordinator to repair the chain
    resp = cluster.sim.run_future(
        port.request("c0", "put", {"key": "k", "val": "v"}, timeout=30.0))
    assert resp.type == "error"  # bounded retries, then a clean failure


# ---------------------------------------------------------------------------
# MS+EC
# ---------------------------------------------------------------------------
def test_ms_ec_batches_propagation():
    config = ControlConfig(ec_batch_interval=0.5, ec_batch_max=1000)
    cluster, port, shard = wire(MSEventualControlet, Topology.MS,
                                Consistency.EVENTUAL, config=config)
    futs = [port.request("c0", "put", {"key": f"k{i}", "val": "v"}) for i in range(10)]
    cluster.sim.run_future(cluster.sim.gather(futs))
    master = cluster.actor("c0")
    assert master.stats["propagated"] == 0  # batch not yet flushed
    assert len(cluster.actor("d1").engine) == 0
    cluster.sim.run_until(cluster.sim.now + 1.0)
    assert master.stats["propagated"] == 10  # single timed flush
    assert len(cluster.actor("d1").engine) == 10


def test_ms_ec_flushes_on_batch_max():
    config = ControlConfig(ec_batch_interval=10.0, ec_batch_max=5)
    cluster, port, shard = wire(MSEventualControlet, Topology.MS,
                                Consistency.EVENTUAL, config=config)
    futs = [port.request("c0", "put", {"key": f"k{i}", "val": "v"}) for i in range(5)]
    cluster.sim.run_future(cluster.sim.gather(futs))
    cluster.sim.run_until(cluster.sim.now + 0.5)  # << batch interval
    assert cluster.actor("c0").stats["propagated"] == 5  # size-triggered flush
    assert len(cluster.actor("d2").engine) == 5


def test_ms_ec_slave_redirects_writes():
    cluster, port, shard = wire(MSEventualControlet, Topology.MS, Consistency.EVENTUAL)
    resp = cluster.sim.run_future(port.request("c2", "put", {"key": "k", "val": "v"}))
    assert resp.payload["error"] == "redirect"


def test_ms_ec_any_replica_serves_reads():
    cluster, port, shard = wire(MSEventualControlet, Topology.MS, Consistency.EVENTUAL)
    cluster.sim.run_future(port.request("c0", "put", {"key": "k", "val": "v"}))
    cluster.sim.run_until(cluster.sim.now + 1.0)
    for c in ("c0", "c1", "c2"):
        resp = cluster.sim.run_future(port.request(c, "get", {"key": "k"}))
        assert resp.payload["val"] == "v"


# ---------------------------------------------------------------------------
# AA+SC
# ---------------------------------------------------------------------------
def wire_aa_sc(lease=1.0):
    cluster = SimCluster()
    cluster.add_actor(LockManagerActor("dlm", lease=lease))
    shard = shard_info(Topology.AA, Consistency.STRONG)
    for i in range(3):
        cluster.add_actor(DataletActor(f"d{i}", HashTableEngine()), host=f"h{i}")
        cluster.add_actor(
            AAStrongControlet(f"c{i}", shard=ShardInfo.from_dict(shard.to_dict()),
                              datalet=f"d{i}", coordinator="nocoord",
                              config=ControlConfig(), dlm="dlm"),
            host=f"h{i}",
        )
    port = cluster.add_port("client")
    cluster.start()
    return cluster, port


def test_aa_sc_write_reaches_all_datalets_before_ack():
    cluster, port = wire_aa_sc()
    resp = cluster.sim.run_future(port.request("c1", "put", {"key": "k", "val": "v"}))
    assert resp.type == "ok"
    for i in range(3):
        assert cluster.actor(f"d{i}").engine.get("k") == "v"
    # and the lock is released (unlock is async: let it land)
    cluster.sim.run_until(cluster.sim.now + 0.1)
    assert cluster.actor("dlm").table.holders("k") == (None, set())


def test_aa_sc_read_takes_and_releases_read_lock():
    cluster, port = wire_aa_sc()
    cluster.sim.run_future(port.request("c0", "put", {"key": "k", "val": "v"}))
    resp = cluster.sim.run_future(port.request("c2", "get", {"key": "k"}))
    assert resp.payload["val"] == "v"
    cluster.sim.run_until(cluster.sim.now + 0.1)
    assert cluster.actor("dlm").table.holders("k") == (None, set())


def test_aa_sc_relaxed_get_skips_lock():
    cluster, port = wire_aa_sc()
    cluster.sim.run_future(port.request("c0", "put", {"key": "k", "val": "v"}))
    grants_before = cluster.actor("dlm").table.grants
    resp = cluster.sim.run_future(
        port.request("c1", "get", {"key": "k", "consistency": "eventual"}))
    assert resp.payload["val"] == "v"
    assert cluster.actor("dlm").table.grants == grants_before


def test_aa_sc_lock_timeout_surfaces_error():
    """DLM unreachable: the write fails with a lock error, no deadlock."""
    cluster, port = wire_aa_sc()
    cluster.kill_host("dlm")
    resp = cluster.sim.run_future(
        port.request("c0", "put", {"key": "k", "val": "v"}, timeout=60.0))
    assert resp.type == "error" and "lock" in resp.payload["error"]
