"""Anti-entropy tests: MS+EC slaves converge after message loss."""

import pytest

from repro.core.types import Consistency, Topology
from repro.harness import Deployment, DeploymentSpec


def build(**kw):
    dep = Deployment(
        DeploymentSpec(shards=1, replicas=3, topology=Topology.MS,
                       consistency=Consistency.EVENTUAL, **kw)
    )
    dep.start()
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    return dep, client


def slave_engines(dep):
    shard = dep.shard(0)
    return [dep.cluster.actor(r.datalet).engine for r in shard.ordered()[1:]]


def controlet(dep, pos):
    return dep.cluster.actor(dep.shard(0).ordered()[pos].controlet)


def test_no_gaps_in_fault_free_run():
    dep, client = build()
    for i in range(50):
        dep.sim.run_future(client.put(f"k{i}", str(i)))
    dep.sim.run_until(dep.sim.now + 1.0)
    for engine in slave_engines(dep):
        assert len(engine) == 50
    assert controlet(dep, 1).gaps_detected == 0
    assert controlet(dep, 2).gaps_detected == 0


def test_partitioned_slave_catches_up_after_heal():
    """Drop the master->slave link for a while; after healing, the gap
    repair brings the slave back to the full dataset."""
    dep, client = build()
    shard = dep.shard(0)
    master_host = shard.ordered()[0].host
    slave = shard.ordered()[2]

    for i in range(10):
        dep.sim.run_future(client.put(f"a{i}", str(i)))
    dep.sim.run_until(dep.sim.now + 1.0)

    dep.cluster.network.partition(master_host, slave.host)
    for i in range(20):
        dep.sim.run_future(client.put(f"b{i}", str(i)))
    dep.sim.run_until(dep.sim.now + 1.0)
    slave_engine = dep.cluster.actor(slave.datalet).engine
    assert len(slave_engine) == 10  # partitioned: missed every b-key

    dep.cluster.network.heal(master_host, slave.host)
    # new writes trigger the gap detection, then the resend repairs
    for i in range(5):
        dep.sim.run_future(client.put(f"c{i}", str(i)))
    dep.sim.run_until(dep.sim.now + 3.0)

    assert controlet(dep, 2).gaps_detected >= 1
    assert len(slave_engine) == 35
    assert slave_engine.get("b7") == "7"
    assert slave_engine.get("c4") == "4"


def test_deep_gap_falls_back_to_snapshot():
    """A gap older than the master's retained window forces a full
    snapshot sync."""
    import repro.core.ms_ec as ms_ec

    old_limit = ms_ec.RETAIN_LIMIT
    ms_ec.RETAIN_LIMIT = 16  # shrink the window for the test
    try:
        dep, client = build()
        shard = dep.shard(0)
        master_host = shard.ordered()[0].host
        slave = shard.ordered()[1]
        dep.sim.run_future(client.put("seed", "s"))  # establish the stream
        dep.sim.run_until(dep.sim.now + 1.0)
        dep.cluster.network.partition(master_host, slave.host)
        # far more writes than the retained window holds
        for i in range(80):
            dep.sim.run_future(client.put(f"k{i:03d}", str(i)))
        dep.sim.run_until(dep.sim.now + 1.0)
        dep.cluster.network.heal(master_host, slave.host)
        for i in range(3):
            dep.sim.run_future(client.put(f"post{i}", str(i)))
        dep.sim.run_until(dep.sim.now + 3.0)
        master_ctl = controlet(dep, 0)
        assert master_ctl.snapshot_syncs_served >= 1
        slave_engine = dep.cluster.actor(slave.datalet).engine
        assert len(slave_engine) == 84  # seed + 80 + 3 post
        assert slave_engine.get("k042") == "42"
    finally:
        ms_ec.RETAIN_LIMIT = old_limit


def test_resend_window_served_without_snapshot():
    dep, client = build()
    shard = dep.shard(0)
    master_host = shard.ordered()[0].host
    slave = shard.ordered()[1]
    dep.sim.run_future(client.put("seed", "s"))  # establish the stream
    dep.sim.run_until(dep.sim.now + 1.0)
    dep.cluster.network.partition(master_host, slave.host)
    for i in range(12):  # well inside the retained window
        dep.sim.run_future(client.put(f"k{i}", str(i)))
    dep.sim.run_until(dep.sim.now + 1.0)
    dep.cluster.network.heal(master_host, slave.host)
    dep.sim.run_future(client.put("trigger", "x"))
    dep.sim.run_until(dep.sim.now + 3.0)
    master_ctl = controlet(dep, 0)
    assert master_ctl.resends_served >= 1
    assert master_ctl.snapshot_syncs_served == 0
    assert len(dep.cluster.actor(slave.datalet).engine) == 14


def test_duplicate_batches_are_idempotent():
    """Overlapping resends (skip >= len) must not corrupt the slave."""
    dep, client = build()
    for i in range(10):
        dep.sim.run_future(client.put(f"k{i}", str(i)))
    dep.sim.run_until(dep.sim.now + 1.0)
    slave_ctl = controlet(dep, 1)
    # replay an old batch manually
    from repro.net.message import Message

    master = dep.shard(0).head.controlet
    dup = Message("replicate", {"master": master, "start_seq": 0,
                                "ops": [{"op": "put", "key": "k0", "val": "0"}]},
                  src=master, dst=slave_ctl.node_id)
    slave_ctl._on_replicate(dup)
    dep.sim.run_until(dep.sim.now + 1.0)
    engine = dep.cluster.actor(dep.shard(0).ordered()[1].datalet).engine
    assert len(engine) == 10 and engine.get("k0") == "0"


def test_new_master_stream_adopted_after_failover():
    """After the master dies and a slave is promoted, the remaining
    slave adopts the new master's sequence stream and keeps applying."""
    dep, client = build(standbys=1)
    for i in range(10):
        dep.sim.run_future(client.put(f"k{i}", str(i)))
    dep.sim.run_until(dep.sim.now + 1.0)
    dep.kill_replica(0, chain_pos=0)
    dep.sim.run_until(dep.sim.now + 12.0)
    for i in range(10):
        dep.sim.run_future(client.put(f"n{i}", str(i)))
    dep.sim.run_until(dep.sim.now + 2.0)
    for r in dep.shard(0).ordered():
        engine = dep.cluster.actor(r.datalet).engine
        assert engine.get("n9") == "9", r.controlet


def test_sync_snapshot_queues_behind_older_replicated_batches():
    """Regression: the snapshot fallback used to ``send`` its restore
    straight to the datalet, around the apply pump — replicated batches
    still queued there were then applied *over* the newer snapshot with
    the cursor already fast-forwarded past them, so the slave diverged
    for good."""
    from repro.net.message import Message

    dep, client = build()
    dep.sim.run_future(client.put("seed", "s"))  # establish the stream
    dep.sim.run_until(dep.sim.now + 1.0)
    slave_ctl = controlet(dep, 1)
    master, seq = slave_ctl._stream

    def frame(type, **payload):
        return Message(type, {"master": master, **payload},
                       src=master, dst=slave_ctl.node_id)

    # two batches writing x: the first is issued, the second queues
    for i, val in enumerate(("old1", "old2")):
        slave_ctl._on_replicate(frame(
            "replicate", start_seq=seq + i,
            ops=[{"op": "put", "key": "x", "val": val}]))
    assert len(slave_ctl._applies) == 1
    # ...then the master's snapshot, which already holds a newer x
    slave_ctl._on_sync_snapshot(frame(
        "sync_snapshot", seq=seq + 3, data={"seed": "s", "x": "new"}))
    dep.sim.run_until(dep.sim.now + 1.0)
    engine = dep.cluster.actor(dep.shard(0).ordered()[1].datalet).engine
    assert slave_ctl._stream == (master, seq + 3)
    assert engine.get("x") == "new"
