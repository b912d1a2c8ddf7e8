"""Failover integration tests (paper §IV failover paragraphs, App D).

Clock scale: heartbeat 1 s, failure timeout 3 s — a kill at t is
detected by ~t+4 and the replacement pair joins shortly after
(snapshot + restore are fast at these data sizes).
"""

import pytest

from repro.core.controlet import Controlet
from repro.core.types import Consistency, Topology
from repro.harness import Deployment, DeploymentSpec


def build(topology, consistency, shards=1, replicas=3, standbys=2, **kw):
    dep = Deployment(
        DeploymentSpec(
            shards=shards,
            replicas=replicas,
            topology=topology,
            consistency=consistency,
            standbys=standbys,
            **kw,
        )
    )
    dep.start()
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    return dep, client


def load_keys(dep, client, n=30):
    futs = [client.put(f"k{i}", str(i)) for i in range(n)]
    dep.sim.run_future(dep.sim.gather(futs))
    dep.sim.run_until(dep.sim.now + 1.0)


def settle_failover(dep, seconds=12.0):
    dep.sim.run_until(dep.sim.now + seconds)


def test_tail_failure_ms_sc_restores_replica_count():
    dep, client = build(Topology.MS, Consistency.STRONG)
    load_keys(dep, client)
    before = dep.shard(0).controlets()
    epoch0 = dep.map.epoch
    dep.kill_replica(0, chain_pos=2)  # tail
    settle_failover(dep)
    shard = dep.shard(0)
    assert len(shard.replicas) == 3  # replacement joined
    assert dep.map.epoch > epoch0
    assert shard.controlets() != before
    # replacement datalet holds the full dataset
    new_tail = shard.tail
    engine = dep.cluster.actor(new_tail.datalet).engine
    assert len(engine) == 30
    assert engine.get("k7") == "7"


def test_head_failure_ms_sc_promotes_second():
    dep, client = build(Topology.MS, Consistency.STRONG)
    load_keys(dep, client)
    old = dep.shard(0).ordered()
    dep.kill_replica(0, chain_pos=0)  # head
    settle_failover(dep)
    shard = dep.shard(0)
    # leader election: the old second node is the new head
    assert shard.head.controlet == old[1].controlet
    # writes and strong reads work against the repaired chain
    dep.sim.run_future(client.put("after", "failover"))
    assert dep.sim.run_future(client.get("after")) == "failover"


def test_mid_failure_ms_sc_chain_relinks():
    dep, client = build(Topology.MS, Consistency.STRONG)
    load_keys(dep, client)
    dep.kill_replica(0, chain_pos=1)  # mid
    settle_failover(dep)
    dep.sim.run_future(client.put("post", "mid-dead"))
    assert dep.sim.run_future(client.get("post")) == "mid-dead"
    # every surviving + replacement datalet converges on the write
    dep.sim.run_until(dep.sim.now + 2.0)
    for r in dep.shard(0).ordered():
        assert dep.cluster.actor(r.datalet).engine.get("post") == "mid-dead"


def test_master_failure_ms_ec_promotes_and_serves_writes():
    dep, client = build(Topology.MS, Consistency.EVENTUAL)
    load_keys(dep, client)
    old_master = dep.shard(0).head.controlet
    dep.kill_replica(0, chain_pos=0)
    settle_failover(dep)
    assert dep.shard(0).head.controlet != old_master
    dep.sim.run_future(client.put("new", "master"))
    dep.sim.run_until(dep.sim.now + 1.0)
    assert dep.sim.run_future(client.get("new")) == "master"


def test_slave_failure_ms_ec_reads_unaffected():
    dep, client = build(Topology.MS, Consistency.EVENTUAL)
    load_keys(dep, client)
    dep.kill_replica(0, chain_pos=2)
    # reads keep working right through the detection window
    for _ in range(5):
        dep.sim.run_until(dep.sim.now + 1.0)
        assert dep.sim.run_future(client.get("k3")) == "3"
    settle_failover(dep)
    assert len(dep.shard(0).replicas) == 3


def test_active_failure_aa_ec_replacement_replays():
    dep, client = build(Topology.AA, Consistency.EVENTUAL)
    load_keys(dep, client)
    dep.kill_replica(0, chain_pos=1)
    settle_failover(dep)
    shard = dep.shard(0)
    assert len(shard.replicas) == 3
    # writes after recovery propagate to the replacement via the log
    dep.sim.run_future(client.put("fresh", "write"))
    dep.sim.run_until(dep.sim.now + 2.0)
    for r in shard.ordered():
        assert dep.cluster.actor(r.datalet).engine.get("fresh") == "write"


def test_active_failure_aa_sc_lock_lease_recovers():
    """A lock held by the dead active expires instead of deadlocking."""
    dep, client = build(Topology.AA, Consistency.STRONG)
    load_keys(dep, client, n=10)
    dep.kill_replica(0, chain_pos=0)
    settle_failover(dep)
    dep.sim.run_future(client.put("locked", "ok"))
    assert dep.sim.run_future(client.get("locked")) == "ok"


def test_no_standby_shard_keeps_serving_degraded():
    dep, client = build(Topology.MS, Consistency.STRONG, standbys=0)
    load_keys(dep, client)
    dep.kill_replica(0, chain_pos=2)
    settle_failover(dep)
    shard = dep.shard(0)
    assert len(shard.replicas) == 2  # degraded but alive
    dep.sim.run_future(client.put("still", "here"))
    assert dep.sim.run_future(client.get("still")) == "here"


def test_double_failure_consumes_both_standbys():
    dep, client = build(Topology.MS, Consistency.EVENTUAL, standbys=2)
    load_keys(dep, client)
    dep.kill_replica(0, chain_pos=2)
    settle_failover(dep)
    dep.kill_replica(0, chain_pos=1)
    settle_failover(dep)
    shard = dep.shard(0)
    assert len(shard.replicas) == 3
    assert len(dep._standbys) == 0
    dep.sim.run_until(dep.sim.now + 2.0)
    for r in shard.ordered():
        assert dep.cluster.actor(r.datalet).engine.get("k5") == "5"


def test_failover_counter_and_epoch_progression():
    dep, client = build(Topology.MS, Consistency.EVENTUAL)
    load_keys(dep, client, n=5)
    assert dep.coordinator.failovers == 0
    dep.kill_replica(0, chain_pos=1)
    settle_failover(dep)
    assert dep.coordinator.failovers == 1
    # epoch bumped at least twice: removal + replacement join
    assert dep.map.epoch >= 2


@pytest.mark.parametrize("topology,consistency,victim", [
    (Topology.MS, Consistency.STRONG, 2),
    (Topology.MS, Consistency.EVENTUAL, 2),
    (Topology.AA, Consistency.STRONG, 1),
    (Topology.AA, Consistency.EVENTUAL, 1),
], ids=["ms-sc", "ms-ec", "aa-sc", "aa-ec"])
def test_writes_during_state_transfer_reach_the_replacement(
        topology, consistency, victim):
    """Hole-free recovery (``sync_pull``): a write committed after the
    source took its snapshot but before the replacement joined is in no
    snapshot — only the source's relay, the replacement's catch-up
    replay or the combo's own stream/log can carry it.  Every acked
    write issued before the replacement recovered and joined must end
    up on the new datalet."""
    dep, client = build(topology, consistency)
    load_keys(dep, client, n=10)
    original = set(dep.cluster.actors)
    # Every link *into* the replacement's host is slow until it has
    # joined: the pull leaves at once, but the snapshot crawls back, so
    # many writes commit between the snapshot and the join.
    net = dep.cluster.network
    standby = dep._standbys[0]
    links = sorted({dep.cluster.host_of(n) for n in original} - {standby})

    def slow_links(factor):
        for h in links:
            net.set_link_factor(h, standby, factor)

    slow_links(2000.0)
    window = {}
    acked = []
    writers = []

    def writer(w):
        for i in range(60):
            issued = dep.sim.now
            try:
                yield client.put(f"w{w}.{i}", str(i))
                acked.append((f"w{w}.{i}", str(i), issued))
            except Exception:  # noqa: BLE001 - only acked writes count
                pass
            yield 0.01

    def watch():
        # writers start with the transfer: writes stalled by the kill
        # would only queue behind the failover
        while "end" not in window:
            fresh = [a for n, a in dep.cluster.actors.items()
                     if n not in original and isinstance(a, Controlet)]
            if fresh and "ctl" not in window:
                window["ctl"] = fresh[0]
                writers.extend(dep.sim.spawn(writer(w)) for w in range(8))
            if (fresh and fresh[0].recovered and fresh[0].node_id
                    in dep.shard(0).controlets()):
                window["end"] = dep.sim.now
                slow_links(1.0)
            yield 0.001

    watcher = dep.sim.spawn(watch())
    dep.kill_replica(0, chain_pos=victim)
    dep.sim.run_future(watcher)
    dep.sim.run_future(dep.sim.gather(writers))
    dep.sim.run_until(dep.sim.now + 5.0)
    during = [(k, v) for k, v, issued in acked if issued <= window["end"]]
    assert during, "no write was acked during the state transfer"
    engine = dep.cluster.actor(window["ctl"].datalet).engine
    missing = [k for k, v in during
               if not engine.contains(k) or engine.get(k) != v]
    assert missing == [], f"acked during transfer, absent after: {missing}"


def test_in_flight_writes_survive_tail_kill():
    """Writes issued around the kill eventually succeed via retries."""
    dep, client = build(Topology.MS, Consistency.STRONG)
    load_keys(dep, client, n=5)

    results = []

    def writer():
        for i in range(40):
            try:
                yield client.put(f"w{i}", str(i))
                results.append(("ok", i))
            except Exception as e:  # noqa: BLE001 - recording all outcomes
                results.append(("fail", i, str(e)))
            yield 0.25

    fut = dep.sim.spawn(writer())
    dep.sim.call_later(2.0, lambda: dep.kill_replica(0, 2))
    dep.sim.run_future(fut)
    failures = [r for r in results if r[0] == "fail"]
    assert len(failures) <= 2, f"too many failed writes: {failures}"
    # and the surviving chain has the last write
    assert dep.sim.run_future(client.get("w39")) == "39"
