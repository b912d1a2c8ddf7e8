"""Unit tests for the network model, RNG registry and cost model."""

import pytest

from repro.sim import CostModel, DEFAULT_COSTS, Network, NetworkParams, RngRegistry, Simulator


def make_net(sim, **kw):
    return Network(sim, NetworkParams(**kw), RngRegistry(42))


def test_delivery_after_latency():
    sim = Simulator()
    net = make_net(sim, one_way_latency=1e-3, jitter_frac=0.0)
    arrived = []
    net.send("a", "b", 0, lambda: arrived.append(sim.now))
    sim.run()
    assert arrived == [pytest.approx(1e-3)]


def test_bandwidth_component():
    sim = Simulator()
    net = make_net(sim, one_way_latency=0.0, bandwidth=1000.0, jitter_frac=0.0)
    arrived = []
    net.send("a", "b", 500, lambda: arrived.append(sim.now))
    sim.run()
    assert arrived == [pytest.approx(0.5)]


def test_loopback_is_cheap():
    sim = Simulator()
    net = make_net(sim, one_way_latency=1e-3, loopback_latency=1e-6, jitter_frac=0.0)
    assert net.delay("a", "a", 1000) == pytest.approx(1e-6)


def test_jitter_bounded_and_reproducible():
    params = NetworkParams(one_way_latency=1e-3, jitter_frac=0.2)

    def sample():
        net = Network(Simulator(), params, RngRegistry(7))
        return [net.delay("a", "b", 0) for _ in range(100)]

    s1, s2 = sample(), sample()
    assert s1 == s2
    for d in s1:
        assert 1e-3 <= d <= 1e-3 * 1.2 + 1e-12


def test_kill_drops_messages_both_directions():
    sim = Simulator()
    net = make_net(sim)
    net.kill("b")
    assert not net.send("a", "b", 0, lambda: pytest.fail("delivered to dead node"))
    assert not net.send("b", "a", 0, lambda: pytest.fail("delivered from dead node"))
    sim.run()
    assert net.messages_dropped == 2


def test_send_passes_arguments_to_deliver():
    sim = Simulator()
    net = make_net(sim, one_way_latency=1e-3, jitter_frac=0.0)
    arrived = []
    net.send("a", "b", 0, lambda x, y: arrived.append((x, y)), "m", 1)
    sim.run()
    assert arrived == [("m", 1)]


def test_kill_after_fault_free_sends_drops():
    """Faults armed after traffic has flowed must still be honoured."""
    sim = Simulator()
    net = make_net(sim)
    arrived = []
    for i in range(5):
        assert net.send("a", "b", 0, arrived.append, i)
    net.kill("b")
    assert not net.send("a", "b", 0, arrived.append, "to-dead")
    assert not net.send("b", "a", 0, arrived.append, "from-dead")
    assert net.send("a", "c", 0, arrived.append, "bystander")
    sim.run()
    assert sorted(arrived, key=str) == [0, 1, 2, 3, 4, "bystander"]
    assert net.messages_dropped == 2


def test_partition_after_fault_free_sends_drops():
    sim = Simulator()
    net = make_net(sim)
    for _ in range(5):
        assert net.send("a", "b", 0, lambda: None)
    net.cut_oneway("a", "b")
    assert not net.send("a", "b", 0, lambda: pytest.fail("crossed a cut link"))
    assert net.send("b", "a", 0, lambda: None)
    net.heal_oneway("a", "b")
    assert net.send("a", "b", 0, lambda: None)
    sim.run()
    assert net.messages_dropped == 1


def test_latency_factor_after_fault_free_sends_applies():
    sim = Simulator()
    net = make_net(sim, one_way_latency=1e-3, jitter_frac=0.0)
    arrived = []
    net.send("a", "b", 0, lambda: arrived.append(sim.now))
    sim.run()
    net.set_link_factor("a", "b", 4.0)
    start = sim.now
    net.send("a", "b", 0, lambda: arrived.append(sim.now - start))
    sim.run()
    net.clear_degradations()
    net.set_node_factor("b", 2.0)
    start = sim.now
    net.send("a", "b", 0, lambda: arrived.append(sim.now - start))
    sim.run()
    assert arrived == [pytest.approx(1e-3), pytest.approx(4e-3), pytest.approx(2e-3)]


def test_revive_restores_delivery():
    sim = Simulator()
    net = make_net(sim)
    net.kill("b")
    net.revive("b")
    arrived = []
    assert net.send("a", "b", 0, lambda: arrived.append(1))
    sim.run()
    assert arrived == [1]


def test_partition_and_heal():
    sim = Simulator()
    net = make_net(sim)
    net.partition("a", "b")
    assert not net.send("a", "b", 0, lambda: None)
    assert not net.send("b", "a", 0, lambda: None)
    assert net.send("a", "c", 0, lambda: None)
    net.heal("a", "b")
    assert net.send("a", "b", 0, lambda: None)


def test_network_stats():
    sim = Simulator()
    net = make_net(sim)
    net.send("a", "b", 100, lambda: None)
    net.send("a", "b", 50, lambda: None)
    sim.run()
    assert net.messages_sent == 2
    assert net.bytes_sent == 150


def test_rng_streams_independent():
    reg = RngRegistry(1)
    a1 = [reg.stream("a").random() for _ in range(5)]
    # interleaving draws from another stream must not disturb "a"
    reg2 = RngRegistry(1)
    b = reg2.stream("b")
    a2 = []
    for _ in range(5):
        b.random()
        a2.append(reg2.stream("a").random())
    assert a1 == a2


def test_rng_seed_changes_streams():
    assert RngRegistry(1).stream("x").random() != RngRegistry(2).stream("x").random()


def test_cost_model_lsm_vs_btree_asymmetry():
    c = DEFAULT_COSTS
    # Fig 6 shape: LSM cheaper writes, B+tree cheaper reads.
    assert c.datalet_cost("lsm", "put") < c.datalet_cost("mt", "put")
    assert c.datalet_cost("mt", "get") < c.datalet_cost("lsm", "get")
    # log is the slowest of the three on reads
    assert c.datalet_cost("log", "get") > c.datalet_cost("lsm", "get")


def test_cost_model_scan_scales_with_items():
    c = DEFAULT_COSTS
    assert c.datalet_cost("mt", "scan", items=100) > c.datalet_cost("mt", "scan", items=1)


def test_cost_model_unknown_op_raises():
    with pytest.raises(KeyError):
        DEFAULT_COSTS.datalet_cost("ht", "scan")


def test_dpdk_cheaper_than_socket():
    c = CostModel()
    assert c.msg_cost(dpdk=True) < c.msg_cost(dpdk=False)
