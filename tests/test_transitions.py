"""Online topology/consistency transition tests (paper §V, Fig 4)."""

import pytest

from repro.core.types import Consistency, Topology
from repro.harness import CONTROLET_CLASSES, Deployment, DeploymentSpec


def build(topology, consistency, shards=2, replicas=3):
    dep = Deployment(
        DeploymentSpec(
            shards=shards, replicas=replicas, topology=topology, consistency=consistency
        )
    )
    dep.start()
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    return dep, client


def load(dep, client, n=20):
    futs = [client.put(f"k{i}", str(i)) for i in range(n)]
    dep.sim.run_future(dep.sim.gather(futs))
    dep.sim.run_until(dep.sim.now + 1.0)


TRANSITIONS = [
    (Topology.MS, Consistency.EVENTUAL, Topology.MS, Consistency.STRONG),
    (Topology.MS, Consistency.EVENTUAL, Topology.AA, Consistency.EVENTUAL),
    (Topology.MS, Consistency.EVENTUAL, Topology.AA, Consistency.STRONG),
    (Topology.AA, Consistency.EVENTUAL, Topology.MS, Consistency.EVENTUAL),
    (Topology.MS, Consistency.STRONG, Topology.MS, Consistency.EVENTUAL),
    (Topology.AA, Consistency.STRONG, Topology.AA, Consistency.EVENTUAL),
    (Topology.AA, Consistency.EVENTUAL, Topology.AA, Consistency.STRONG),
    (Topology.MS, Consistency.STRONG, Topology.AA, Consistency.EVENTUAL),
]

IDS = [f"{a.value}-{b.value}->{c.value}-{d.value}" for a, b, c, d in TRANSITIONS]


@pytest.mark.parametrize("t0,c0,t1,c1", TRANSITIONS, ids=IDS)
def test_transition_flips_map_and_preserves_data(t0, c0, t1, c1):
    dep, client = build(t0, c0)
    load(dep, client)
    old_controlets = set(dep.shard(0).controlets()) | set(dep.shard(1).controlets())
    epoch0 = dep.map.epoch
    dep.sim.run_future(dep.request_transition(t1, c1))
    dep.sim.run_until(dep.sim.now + 0.1)  # let in-flight retire messages land
    shard = dep.shard(0)
    assert shard.topology is Topology(t1)
    assert shard.consistency is Consistency(c1)
    assert dep.map.epoch > epoch0
    # all controlets are new; datalets unchanged
    assert not (set(shard.controlets()) & old_controlets)
    # old controlets are retired
    for c in old_controlets:
        assert dep.cluster.actor(c).retired
    # data written before the transition is still served
    dep.sim.run_until(dep.sim.now + 1.0)
    client2 = dep.client("c1")
    dep.sim.run_future(client2.connect())
    for i in range(0, 20, 5):
        assert dep.sim.run_future(client2.get(f"k{i}")) == str(i)


def run_until(dep, done, horizon):
    """Step the simulation until ``done()`` or ``horizon`` simulated seconds pass."""
    deadline = dep.sim.now + horizon
    while not done() and dep.sim.now < deadline:
        dep.sim.run_until(min(deadline, dep.sim.now + 0.5))
    return done()


@pytest.mark.parametrize("pos", [0, 1], ids=["head", "mid"])
@pytest.mark.parametrize("t0,c0,t1,c1", TRANSITIONS, ids=IDS)
def test_transition_completes_when_a_replica_died_first(t0, c0, t1, c1, pos):
    """A replica host dies just before the request: the transition
    spawns a counterpart on the dead host and orders the dead controlet
    to drain.  Once the failure detector drops it, the wait and the new
    service drop it too, the shard flips, and the refill joins the new
    service, so the next reshard is admitted."""
    dep, client = build(t0, c0, shards=1)
    load(dep, client)
    dead = dep.kill_replica(0, pos)
    fut = dep.request_transition(t1, c1)
    assert run_until(dep, lambda: fut.done, dep.spec.control.failure_timeout + 10.0)
    fut.result()
    assert dead not in {r.host for r in dep.shard(0).replicas}
    assert run_until(dep, lambda: len(dep.shard(0).replicas) == 3, 30.0)
    new_cls = CONTROLET_CLASSES[(t1, c1)]
    for r in dep.shard(0).replicas:
        assert type(dep.cluster.actor(r.controlet)) is new_cls
    stats = dep.sim.run_future(dep.request_reshard("add"))
    assert stats["moved"] + stats["skipped"] == stats["total"]
    dep.sim.run_until(dep.sim.now + 2.0)  # eventual combos: let copies propagate
    client2 = dep.client("c1")
    dep.sim.run_future(client2.connect())
    for i in range(20):
        assert dep.sim.run_future(client2.get(f"k{i}")) == str(i)


@pytest.mark.parametrize("t0,c0,t1,c1", TRANSITIONS[:4], ids=IDS[:4])
def test_writes_after_transition_follow_new_protocol(t0, c0, t1, c1):
    dep, client = build(t0, c0)
    load(dep, client, n=5)
    dep.sim.run_future(dep.request_transition(t1, c1))
    client2 = dep.client("cx")
    dep.sim.run_future(client2.connect())
    dep.sim.run_future(client2.put("post", "transition"))
    dep.sim.run_until(dep.sim.now + 2.0)
    for r in dep.shard(0).ordered():
        if client2.shard_for("post").shard_id == r.controlet.split(".")[0].lstrip("c"):
            pass  # key may live on either shard; checked below via client
    assert dep.sim.run_future(client2.get("post")) == "transition"
    if Consistency(c1) is Consistency.STRONG and Topology(t1) is Topology.MS:
        # strong: at ack time the tail datalet already has the write
        shard = client2.shard_for("post")
        assert dep.cluster.actor(shard.tail.datalet).engine.get("post") == "transition"


def test_stale_client_recovers_via_retired_errors():
    """A client that never refreshes proactively still works: its first
    op after the flip sees 'retired', refreshes, retries."""
    dep, client = build(Topology.MS, Consistency.EVENTUAL)
    load(dep, client, n=5)
    dep.sim.run_future(dep.request_transition(Topology.MS, Consistency.STRONG))
    # client still holds the old map
    assert dep.sim.run_future(client.get("k1")) == "1"
    assert client.retries >= 1  # had to bounce at least once


def test_writes_during_transition_are_not_lost():
    """§V: 'The old controlet provides the old service with no
    downtime' — a writer running across the switch loses nothing."""
    dep, client = build(Topology.MS, Consistency.EVENTUAL, shards=1)
    load(dep, client, n=5)
    outcomes = []

    def writer():
        for i in range(60):
            try:
                yield client.put(f"w{i}", str(i))
                outcomes.append(True)
            except Exception:  # noqa: BLE001
                outcomes.append(False)
            yield 0.05

    wfut = dep.sim.spawn(writer())
    tfut = dep.request_transition(Topology.MS, Consistency.STRONG)
    dep.sim.run_future(wfut)
    dep.sim.run_future(tfut)
    assert all(outcomes), f"{outcomes.count(False)} writes failed during transition"
    dep.sim.run_until(dep.sim.now + 2.0)
    # every write is present on the (new) tail
    tail_engine = dep.cluster.actor(dep.shard(0).tail.datalet).engine
    for i in range(60):
        assert tail_engine.get(f"w{i}") == str(i)


def test_gets_served_throughout_transition():
    dep, client = build(Topology.MS, Consistency.EVENTUAL, shards=1)
    load(dep, client, n=5)
    reads = []

    def reader():
        for _ in range(80):
            try:
                value = yield client.get("k1")
                reads.append(value)
            except Exception:  # noqa: BLE001
                reads.append(None)
            yield 0.05

    rfut = dep.sim.spawn(reader())
    tfut = dep.request_transition(Topology.AA, Consistency.EVENTUAL)
    dep.sim.run_future(rfut)
    dep.sim.run_future(tfut)
    assert reads.count(None) == 0
    assert set(reads) == {"1"}


#: the coordinator's two exclusive operations, as a (first, second)
#: request pair's builders; the second transition targets a different
#: combo than the first
GATED = {
    "transition": lambda dep, nth: dep.request_transition(
        *[(Topology.MS, Consistency.STRONG), (Topology.AA, Consistency.EVENTUAL)][nth],
        client_name=f"admin{nth}"),
    "reshard": lambda dep, nth: dep.request_reshard("add", client_name=f"admin{nth}"),
}


@pytest.mark.parametrize("first,second", [(a, b) for a in GATED for b in GATED])
def test_second_transition_rejected_while_active(first, second):
    """Exactly one of two concurrent requests — transitions or reshards
    in any mix — wins; the other is refused by the one admission gate
    with '<winner> in progress' ('<winner> already in progress' when
    both are the same kind)."""
    dep, client = build(Topology.MS, Consistency.EVENTUAL)
    kinds = (first, second)
    futs = [GATED[kind](dep, nth) for nth, kind in enumerate(kinds)]
    dep.sim.run_until(dep.sim.now + 60.0)
    assert all(f.done for f in futs)
    errors = []
    for f in futs:
        try:
            f.result()
            errors.append(None)
        except Exception as e:  # noqa: BLE001
            errors.append(str(e))
    assert errors.count(None) == 1
    winner = kinds[errors.index(None)]
    again = "already " if first == second else ""
    refusal = next(e for e in errors if e is not None)
    assert f"'{winner} {again}in progress'" in refusal


def test_chained_transitions_return_roundtrip():
    """MS+EC -> MS+SC -> MS+EC: two flips back to the original config."""
    dep, client = build(Topology.MS, Consistency.EVENTUAL, shards=1)
    load(dep, client, n=10)
    dep.sim.run_future(dep.request_transition(Topology.MS, Consistency.STRONG))
    dep.sim.run_until(dep.sim.now + 1.0)
    dep.sim.run_future(
        dep.request_transition(Topology.MS, Consistency.EVENTUAL, client_name="admin2")
    )
    assert dep.shard(0).consistency is Consistency.EVENTUAL
    client2 = dep.client("c2")
    dep.sim.run_future(client2.connect())
    dep.sim.run_future(client2.put("final", "state"))
    dep.sim.run_until(dep.sim.now + 1.0)
    assert dep.sim.run_future(client2.get("final")) == "state"
    assert dep.sim.run_future(client2.get("k3")) == "3"


def test_transition_to_aa_ec_after_a_reshard_add():
    """A shard added online under MS+SC gets no shared-log sequencer;
    a later switch to AA+EC must start one for it when its first AA+EC
    controlet is built, and every preloaded key still reads back."""
    dep, client = build(Topology.MS, Consistency.STRONG, shards=1)
    load(dep, client)
    stats = dep.sim.run_future(dep.request_reshard("add"))
    assert stats["moved"] + stats["skipped"] == stats["total"]
    epoch = dep.sim.run_future(dep.request_transition(Topology.AA, Consistency.EVENTUAL))
    assert epoch == dep.map.epoch
    assert set(dep.sharedlogs) == {"s0", "s1"}
    for sid in dep.map.shard_ids():
        shard = dep.map.shard(sid)
        assert (shard.topology, shard.consistency) == (Topology.AA, Consistency.EVENTUAL)
    dep.sim.run_until(dep.sim.now + 2.0)
    client2 = dep.client("c1")
    dep.sim.run_future(client2.connect())
    for i in range(20):
        assert dep.sim.run_future(client2.get(f"k{i}")) == str(i)
