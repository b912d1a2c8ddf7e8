"""Chaos tests: the stack must absorb random packet loss.

Client retries, chain-replication timeouts and MS+EC anti-entropy are
the absorption mechanisms; these tests crank ``loss_rate`` and assert
the *service-level* guarantees still hold.
"""

import pytest

from repro.core.types import Consistency, Topology
from repro.errors import KeyNotFound
from repro.harness import Deployment, DeploymentSpec
from repro.sim import Network, NetworkParams, RngRegistry, Simulator


def test_network_params_validation():
    with pytest.raises(ValueError):
        NetworkParams(loss_rate=1.0)
    with pytest.raises(ValueError):
        NetworkParams(loss_rate=-0.1)
    with pytest.raises(ValueError):
        NetworkParams(duplicate_rate=1.0)
    with pytest.raises(ValueError):
        NetworkParams(duplicate_rate=-0.1)
    with pytest.raises(ValueError):
        NetworkParams(reorder_rate=1.5)
    with pytest.raises(ValueError):
        NetworkParams(reorder_delay=0.0)
    p = NetworkParams(duplicate_rate=0.2, reorder_rate=0.1,
                      reorder_delay=0.05)
    assert (p.duplicate_rate, p.reorder_rate) == (0.2, 0.1)


def test_duplicate_rate_delivers_extra_copies():
    sim = Simulator()
    net = Network(sim, NetworkParams(duplicate_rate=0.5), RngRegistry(5))
    delivered = []
    for _ in range(500):
        net.send("a", "b", 0, lambda: delivered.append(1))
    sim.run()
    assert len(delivered) > 500
    assert net.messages_duplicated == len(delivered) - 500


def test_reorder_rate_swaps_in_flight_messages():
    sim = Simulator()
    net = Network(sim, NetworkParams(reorder_rate=0.5, jitter_frac=0.0),
                  RngRegistry(5))
    order = []
    for i in range(200):
        net.send("a", "b", 0, lambda i=i: order.append(i))
    sim.run()
    assert sorted(order) == list(range(200))  # nothing lost
    assert order != sorted(order)  # but delivery overtook send order
    assert net.messages_reordered > 0


def test_oneway_cut_is_asymmetric():
    sim = Simulator()
    net = Network(sim, NetworkParams(), RngRegistry(1))
    net.cut_oneway("a", "b")
    got = []
    net.send("a", "b", 0, lambda: got.append("a->b"))
    net.send("b", "a", 0, lambda: got.append("b->a"))
    sim.run()
    assert got == ["b->a"]
    net.heal_oneway("a", "b")
    net.send("a", "b", 0, lambda: got.append("a->b"))
    sim.run()
    assert "a->b" in got


def test_latency_factors_and_heal_all():
    sim = Simulator()
    net = Network(sim, NetworkParams(jitter_frac=0.0), RngRegistry(1))
    times = []
    net.send("a", "b", 0, lambda: times.append(sim.now))
    sim.run()
    base = times[0]
    net.set_link_factor("a", "b", 10.0)
    t0 = sim.now
    net.send("a", "b", 0, lambda: times.append(sim.now - t0))
    sim.run()
    assert times[1] == pytest.approx(10.0 * base)
    net.set_node_factor("b", 4.0)
    net.clear_degradations()
    t0 = sim.now
    net.send("a", "b", 0, lambda: times.append(sim.now - t0))
    sim.run()
    assert times[2] == pytest.approx(base)
    # heal_all clears partitions (chaos teardown path)
    net.partition("a", "b")
    net.cut_oneway("b", "c")
    net.heal_all()
    assert not net.is_cut("a", "b") and not net.is_cut("b", "c")


def test_loss_rate_drops_about_right_fraction():
    sim = Simulator()
    net = Network(sim, NetworkParams(loss_rate=0.3), RngRegistry(5))
    delivered = []
    for i in range(2000):
        net.send("a", "b", 0, lambda: delivered.append(1))
    sim.run()
    assert 0.6 < len(delivered) / 2000 < 0.8
    assert net.messages_dropped == 2000 - len(delivered)


def test_loopback_never_dropped():
    sim = Simulator()
    net = Network(sim, NetworkParams(loss_rate=0.9), RngRegistry(5))
    delivered = []
    for _ in range(200):
        net.send("a", "a", 0, lambda: delivered.append(1))
    sim.run()
    assert len(delivered) == 200


def build(topology, consistency, loss, **kw):
    dep = Deployment(
        DeploymentSpec(
            shards=2, replicas=3, topology=topology, consistency=consistency,
            net_params=NetworkParams(loss_rate=loss), **kw,
        )
    )
    dep.start()
    client = dep.client("c0", max_retries=10)
    dep.sim.run_future(client.connect())
    return dep, client


def test_ms_sc_strong_guarantee_survives_loss():
    """5% loss: acked writes are still fully replicated at ack time."""
    dep, client = build(Topology.MS, Consistency.STRONG, loss=0.05)
    for i in range(30):
        dep.sim.run_future(client.put(f"k{i}", str(i)))
        shard = client.shard_for(f"k{i}")
        # the ack means the tail datalet has it, loss or no loss
        assert dep.cluster.actor(shard.tail.datalet).engine.get(f"k{i}") == str(i)


def test_ms_ec_converges_despite_heavy_loss():
    """15% loss on the propagation path: anti-entropy repairs gaps and
    every replica converges after quiescence."""
    dep, client = build(Topology.MS, Consistency.EVENTUAL, loss=0.15)
    for i in range(60):
        dep.sim.run_future(client.put(f"k{i}", str(i)))
    # quiesce long enough for gap detection + resends
    dep.sim.run_until(dep.sim.now + 10.0)
    for i in range(58):  # the last couple may still be buffered... flush
        pass
    dep.sim.run_until(dep.sim.now + 5.0)
    for sid in dep.map.shard_ids():
        shard = dep.map.shard(sid)
        master_engine = dep.cluster.actor(shard.head.datalet).engine
        for replica in shard.ordered()[1:]:
            engine = dep.cluster.actor(replica.datalet).engine
            # every key the master holds that had a *subsequent* write
            # (triggering gap detection) must eventually arrive; allow
            # only the very tail of the stream to lag
            missing = [k for k, _ in master_engine.items() if not engine.contains(k)]
            assert len(missing) <= 3, f"{replica.datalet} missing {len(missing)} keys"


def test_client_ops_succeed_under_loss():
    dep, client = build(Topology.AA, Consistency.EVENTUAL, loss=0.10)
    ok = 0
    for i in range(40):
        try:
            dep.sim.run_future(client.put(f"k{i}", str(i)))
            ok += 1
        except Exception:  # noqa: BLE001
            pass
    assert ok >= 38  # retries absorb the loss
    dep.sim.run_until(dep.sim.now + 3.0)
    found = 0
    for i in range(40):
        try:
            dep.sim.run_future(client.get(f"k{i}"))
            found += 1
        except KeyNotFound:
            pass
        except Exception:  # noqa: BLE001
            pass
    assert found >= 35
