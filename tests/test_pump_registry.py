"""Every Pump a controlet drives reports itself.

The template derives the pumps' fingerprint fields, batching metrics and
``batch.*`` histograms from one registry (``Controlet._pump``), so a pump
that is never registered would go unobserved.  These tests boot every
combo and the AA-MS hybrid, drive some writes, find every ``Pump``
reachable from each controlet's attributes (into containers, such as
MS+EC's per-peer pumps, and into the parts it builds, such as the
reshard participant's copy pump) and check that each one shows up in
``snapshot_state()``, and in ``metrics_group()`` through its unit.  A
pump without a unit must be one of :data:`UNITLESS`: a new pump has to
be registered and either given a unit or listed there.
"""

import pytest

from repro.core.controlet import Controlet
from repro.core.pump import Pump
from repro.core.types import Consistency, Topology
from repro.harness import Deployment, DeploymentSpec

from tests.test_hybrid import build_hybrid

#: registered pumps that report no batching metrics: the head's accept
#: batches, the MS+SC inbound frame pump, the replicated-apply pump and
#: the reshard copy pump (their backlogs are in the fingerprint only).
UNITLESS = {"accept", "frame", "apply", "copy"}

#: the batching units each controlet class reports in ``metrics_group()``.
UNITS = {
    "MSStrongControlet": {"chain_frame"},
    "MSEventualControlet": {"replicate_frame"},
    "AAStrongControlet": set(),
    "AAEventualControlet": {"group_commit"},
    "AAMSHybridControlet": {"group_commit", "replicate_frame"},
}


def reachable_pumps(ctl):
    """Every Pump reachable from ``ctl``'s attributes: directly, inside
    a list/tuple/dict, or one part deep (an object of this package that
    is not itself an actor)."""
    found, seen = [], {id(ctl)}

    def visit(value, depth):
        if id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, Pump):
            found.append(value)
        elif isinstance(value, dict):
            for v in value.values():
                visit(v, depth)
        elif isinstance(value, (list, tuple)):
            for v in value:
                visit(v, depth)
        elif (depth and type(value).__module__.startswith("repro.")
              and hasattr(value, "__dict__") and not isinstance(value, Controlet)):
            for v in vars(value).values():
                visit(v, depth - 1)

    for v in vars(ctl).values():
        visit(v, 1)
    return found


def check_registry(ctl):
    pumps = reachable_pumps(ctl)
    assert pumps, ctl.node_id
    names = {id(p): n for n, p in ctl._pumps.items()}
    units = {id(p): u for u, ps in ctl._units.items() for p in ps}
    snap = ctl.snapshot_state()
    metrics = ctl.metrics_group()
    for pump in pumps:
        name = names.get(id(pump))
        assert name is not None, f"{ctl.node_id}: unregistered pump {pump.issue}"
        assert snap["_pumps"][name] == [len(pump), pump.busy], name
        unit = units.get(id(pump))
        if unit is None:
            assert name in UNITLESS, f"{ctl.node_id}: {name} reports no metrics"
        else:
            assert metrics[f"{unit}s"] >= pump.batches, name
    assert set(ctl._units) == UNITS[type(ctl).__name__]
    for unit, members in ctl._units.items():
        assert metrics[f"{unit}s"] == sum(p.batches for p in members)
        assert metrics[f"{unit}_ops"] == sum(p.items for p in members)
    return {names[id(p)] for p in pumps}


@pytest.mark.parametrize("topology,consistency", [
    (Topology.MS, Consistency.STRONG),
    (Topology.MS, Consistency.EVENTUAL),
    (Topology.AA, Consistency.STRONG),
    (Topology.AA, Consistency.EVENTUAL),
])
def test_every_combo_pump_is_registered(topology, consistency):
    dep = Deployment(DeploymentSpec(shards=1, replicas=3, topology=topology,
                                    consistency=consistency, seed=3))
    dep.start()
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    for i in range(12):
        dep.sim.run_future(client.put(f"k{i % 4}", f"v{i}"))
    dep.sim.run_until(dep.sim.now + 2.0)
    seen = set()
    for replica in dep.shard(0).ordered():
        seen |= check_registry(dep.cluster.actor(replica.controlet))
    if topology is Topology.MS and consistency is Consistency.EVENTUAL:
        # the master's per-peer pumps, one per slave
        assert sum(n.startswith("replicate.") for n in seen) == 2


def test_hybrid_pumps_are_registered():
    cluster, port = build_hybrid()
    for i in range(6):
        cluster.sim.run_future(port.request(f"m{i % 2}", "put", {"key": "k", "val": str(i)}))
    cluster.sim.run_until(cluster.sim.now + 2.0)
    for node in ("m0", "m1", "sl0", "sl1"):
        names = check_registry(cluster.actor(node))
        if node.startswith("m"):
            assert f"replicate.sl{node[1]}" in names
            metrics = cluster.actor(node).metrics_group()
            assert metrics["replicate_frames"] > 0 and metrics["group_commits"] > 0
