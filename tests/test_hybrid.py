"""Tests for §IV-E extended topologies: AA-MS hybrid and Chord P2P."""

import math

import pytest

from repro.core.config import ControlConfig
from repro.core.hybrid import AAMSHybridControlet, P2PNode, chord_distance
from repro.core import ms_ec
from repro.core.ms_ec import MSEventualControlet
from repro.core.types import Consistency, Replica, ShardInfo, Topology
from repro.datalet import DataletActor, HashTableEngine
from repro.errors import KeyNotFound
from repro.net import SimCluster
from repro.sharedlog import SharedLogActor
from repro.sim import CostModel


# ---------------------------------------------------------------------------
# AA-MS hybrid
# ---------------------------------------------------------------------------
def build_hybrid(**cluster_kw):
    """2 masters (AA via shared log), each with 1 slave (MS+EC)."""
    c = SimCluster(**cluster_kw)
    c.add_actor(SharedLogActor("log"))
    cfg = ControlConfig()
    shard = ShardInfo(
        "s0",
        Topology.AA,
        Consistency.EVENTUAL,
        [
            Replica("m0", "dm0", "hm0", 0),
            Replica("m1", "dm1", "hm1", 1),
        ],
    )
    for i in range(2):
        c.add_actor(DataletActor(f"dm{i}", HashTableEngine()), host=f"hm{i}")
        c.add_actor(DataletActor(f"ds{i}", HashTableEngine()), host=f"hs{i}")
        c.add_actor(
            MSEventualControlet(
                f"sl{i}",
                shard=ShardInfo.from_dict(shard.to_dict()),
                datalet=f"ds{i}",
                coordinator="nocoord",
                config=cfg,
            ),
            host=f"hs{i}",
        )
        c.add_actor(
            AAMSHybridControlet(
                f"m{i}",
                shard=ShardInfo.from_dict(shard.to_dict()),
                datalet=f"dm{i}",
                coordinator="nocoord",
                config=cfg,
                sharedlog="log",
                slaves=[f"sl{i}"],
            ),
            host=f"hm{i}",
        )
    port = c.add_port("client")
    c.start()
    return c, port


def test_hybrid_write_reaches_masters_and_slaves():
    c, port = build_hybrid()
    resp = c.sim.run_future(port.request("m0", "put", {"key": "k", "val": "v"}))
    assert resp.type == "ok"
    c.sim.run_until(c.sim.now + 2.0)
    for datalet in ("dm0", "dm1", "ds0", "ds1"):
        assert c.actor(datalet).engine.get("k") == "v", datalet


def test_hybrid_either_master_accepts_writes():
    c, port = build_hybrid()
    c.sim.run_future(port.request("m0", "put", {"key": "a", "val": "1"}))
    c.sim.run_future(port.request("m1", "put", {"key": "b", "val": "2"}))
    c.sim.run_until(c.sim.now + 2.0)
    for datalet in ("dm0", "dm1", "ds0", "ds1"):
        engine = c.actor(datalet).engine
        assert engine.get("a") == "1" and engine.get("b") == "2"


def test_hybrid_conflicting_writes_converge_everywhere():
    c, port = build_hybrid()
    futs = []
    for i in range(10):
        futs.append(port.request("m0", "put", {"key": "hot", "val": f"x{i}"}))
        futs.append(port.request("m1", "put", {"key": "hot", "val": f"y{i}"}))
    c.sim.run_future(c.sim.gather(futs))
    c.sim.run_until(c.sim.now + 3.0)
    values = {c.actor(d).engine.get("hot") for d in ("dm0", "dm1", "ds0", "ds1")}
    assert len(values) == 1


def put(c, port, master, key, val):
    resp = c.sim.run_future(port.request(master, "put", {"key": key, "val": val}))
    assert resp.type == "ok"


def test_hybrid_slave_repairs_a_lost_frame():
    """A replicate frame lost on the master→slave link leaves a gap the
    slave can only close through the master's ``resend_request`` path."""
    c, port = build_hybrid()
    c.network.cut_oneway("hm0", "hs0")
    put(c, port, "m0", "a", "1")
    c.sim.run_until(c.sim.now + 2.0)
    c.network.heal_oneway("hm0", "hs0")
    put(c, port, "m0", "b", "2")
    put(c, port, "m0", "c", "3")
    c.sim.run_until(c.sim.now + 2.0)
    engine = c.actor("ds0").engine
    assert [engine.get(k) for k in "abc"] == ["1", "2", "3"]
    assert c.actor("sl0").stats["gaps_detected"] >= 1
    assert c.actor("m0").stats["resends_served"] >= 1


def test_hybrid_slave_past_a_busy_masters_window_converges(monkeypatch):
    """A slave whose gap is older than its master's retained window
    pulls the master's snapshot while a burst keeps a replay apply of
    the master's in flight.  The master used to read its sequence
    counter after the snapshot returned, counting batches the snapshot
    had overtaken, and the slave never saw their writes."""
    monkeypatch.setattr(ms_ec, "RETAIN_LIMIT", 16)
    c, port = build_hybrid(costs=CostModel(cpu_scale=600.0))
    put(c, port, "m0", "seed", "s")  # establish the stream
    c.sim.run_until(c.sim.now + 1.0)
    c.network.cut_oneway("hm0", "hs0")
    for i in range(40):  # far more writes than the window holds
        put(c, port, "m0", f"gap{i}", str(i))
    c.sim.run_until(c.sim.now + 1.0)
    c.network.heal_oneway("hm0", "hs0")
    burst = [port.request(f"m{i % 2}", "put", {"key": f"b{i}", "val": str(i)})
             for i in range(64)]
    c.sim.run_future(c.sim.gather(burst))
    c.sim.run_until(c.sim.now + 5.0)
    assert c.actor("m0").stats["snapshot_syncs_served"] >= 1
    assert c.actor("ds0").engine.snapshot() == c.actor("dm0").engine.snapshot()


def test_hybrid_slaves_keep_their_own_master_after_repair():
    """Both masters lose a frame to their slave while writes go to both:
    each slave repairs against its *own* master's stream (the hybrid
    masters do not answer ``seq_probe``, whose view-head target would be
    ``m0`` for both slaves) and ends equal to that master's datalet."""
    c, port = build_hybrid()
    for i in range(2):
        c.network.cut_oneway(f"hm{i}", f"hs{i}")
    put(c, port, "m0", "x", "1")
    put(c, port, "m1", "y", "2")
    c.sim.run_until(c.sim.now + 2.0)
    for i in range(2):
        c.network.heal_oneway(f"hm{i}", f"hs{i}")
    for n in range(3):
        put(c, port, f"m{n % 2}", f"z{n}", str(n))
    c.sim.run_until(c.sim.now + 3.0)
    for i in range(2):
        assert c.actor(f"sl{i}")._stream[0] == f"m{i}"
        slave = c.actor(f"ds{i}").engine.snapshot()
        assert slave == c.actor(f"dm{i}").engine.snapshot()
        assert {"x", "y", "z0", "z1", "z2"} <= set(slave)


# ---------------------------------------------------------------------------
# Chord P2P
# ---------------------------------------------------------------------------
def build_p2p(n=16):
    c = SimCluster()
    members = [f"peer{i}" for i in range(n)]
    for m in members:
        c.add_actor(P2PNode(m, members))
    port = c.add_port("client")
    c.start()
    return c, port, members


def test_chord_distance_wraps():
    assert chord_distance(5, 10) == 5
    assert chord_distance(10, 5) == (1 << 64) - 5


def test_p2p_put_get_via_any_entry_node():
    c, port, members = build_p2p()
    resp = c.sim.run_future(port.request(members[0], "put", {"key": "k", "val": "v"}))
    assert resp.type == "ok"
    # read through a different entry point
    resp = c.sim.run_future(port.request(members[7], "get", {"key": "k"}))
    assert resp.payload["val"] == "v"


def test_p2p_key_stored_only_at_owner():
    c, port, members = build_p2p()
    c.sim.run_future(port.request(members[3], "put", {"key": "somekey", "val": "v"}))
    holders = [m for m in members if c.actor(m).engine.contains("somekey")]
    assert len(holders) == 1
    assert holders[0] == c.actor(members[0]).owner_of("somekey")


def test_p2p_hop_count_logarithmic():
    c, port, members = build_p2p(n=32)
    worst = 0
    for i in range(40):
        resp = c.sim.run_future(
            port.request(members[i % 32], "put", {"key": f"key{i}", "val": "v"})
        )
        worst = max(worst, resp.payload["hops"])
    assert worst <= math.ceil(math.log2(32)) + 1, f"worst hop count {worst}"


def test_p2p_delete_and_missing():
    c, port, members = build_p2p()
    c.sim.run_future(port.request(members[0], "put", {"key": "k", "val": "v"}))
    resp = c.sim.run_future(port.request(members[5], "del", {"key": "k"}))
    assert resp.type == "ok"
    resp = c.sim.run_future(port.request(members[9], "get", {"key": "k"}))
    assert resp.payload["error"] == "not_found"


def test_p2p_all_nodes_agree_on_ownership():
    c, port, members = build_p2p(n=8)
    for key in ("a", "b", "zebra", "user123"):
        owners = {c.actor(m).owner_of(key) for m in members}
        assert len(owners) == 1
