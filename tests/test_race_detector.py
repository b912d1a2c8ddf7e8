"""Tests for the simulation race detector (repro.analysis.races)."""

import pytest

from repro.analysis.races import RaceDetector, perturb_ties
from repro.chaos.runner import run_combo
from repro.core.types import Consistency, Topology
from repro.errors import RequestTimeout, SimulationError
from repro.net.actor import Actor
from repro.net.simnet import SimCluster
from repro.sim import NetworkParams, Simulator


class Sink(Actor):
    def __init__(self, node_id="sink"):
        super().__init__(node_id)
        self.seen = []
        self.register("ping", lambda m: self.seen.append(m.payload["tag"]))


def build(sim):
    """Two senders, one receiver, zero jitter: same-size payloads sent at
    the same instant arrive at the same timestamp."""
    cluster = SimCluster(sim=sim, net_params=NetworkParams(jitter_frac=0.0))
    sink = Sink()
    cluster.add_actor(sink)
    p1 = Actor("p1")
    cluster.add_actor(p1)
    p2 = Actor("p2")
    cluster.add_actor(p2)
    cluster.start()
    return cluster, sink, p1, p2


class Accesses:
    """Kernel tracer that keeps every access the cluster records."""

    def __init__(self):
        self.seen = []

    def begin_event(self, time, seq):
        pass

    def end_event(self):
        pass

    def record_access(self, actor, label):
        self.seen.append((actor, label))


def test_rpc_timeouts_reach_a_detector_attached_after_the_actors():
    """A node context binds set_timer straight to the kernel while no
    detector is attached; attaching one rebinds every placed actor's
    context, so each RPC timeout is recorded, before and after."""
    sim = Simulator()
    cluster, _sink, p1, _p2 = build(sim)
    accesses = Accesses()
    cluster.attach_race_detector(accesses)
    late = cluster.add_actor(Actor("late"))
    errors = []
    for actor in (p1, late):  # the sink never answers a ping
        actor.call("sink", "ping", {"tag": actor.node_id},
                   callback=lambda resp, err: errors.append(err), timeout=0.5)
    sim.run()
    assert [type(e) for e in errors] == [RequestTimeout, RequestTimeout]
    fired = [a for a in accesses.seen if a[1] == "timer:Actor._rpc_timeout"]
    assert fired == [("p1", "timer:Actor._rpc_timeout"), ("late", "timer:Actor._rpc_timeout")]


# ---------------------------------------------------------------------------
# conflict detection
# ---------------------------------------------------------------------------
def test_tied_deliveries_to_one_actor_are_a_race():
    sim = Simulator()
    det = RaceDetector()
    cluster, sink, p1, p2 = build(sim)
    cluster.attach_race_detector(det)
    assert sim.tracer is det
    sim.call_later(0.5, lambda: p1.send("sink", "ping", {"tag": "one"}))
    sim.call_later(0.5, lambda: p2.send("sink", "ping", {"tag": "two"}))
    sim.run()
    det.finish()
    assert len(det.races) == 1
    race = det.races[0]
    assert race.actor == "sink"
    assert race.first_labels == ("deliver:ping",)
    assert race.second_labels == ("deliver:ping",)
    assert race.first_seq != race.second_seq
    assert "sink" in race.describe()
    assert det.tied_groups >= 1
    assert sink.seen == ["one", "two"]


def test_tied_timers_on_one_actor_are_a_race():
    sim = Simulator()
    det = RaceDetector()
    cluster, sink, _, _ = build(sim)
    cluster.attach_race_detector(det)
    fired = []
    sink.set_timer(1.0, lambda: fired.append("a"))
    sink.set_timer(1.0, lambda: fired.append("b"))
    sim.run()
    det.finish()
    assert fired == ["a", "b"]
    assert any(
        r.actor == "sink" and any(l.startswith("timer:") for l in r.first_labels)
        for r in det.races
    )


def test_different_actors_or_times_are_not_races():
    sim = Simulator()
    det = RaceDetector()
    cluster, sink, p1, p2 = build(sim)
    cluster.attach_race_detector(det)
    p1.register("noop", lambda m: None)
    p2.register("noop", lambda m: None)
    # same time, different destinations
    sim.call_later(0.5, lambda: sink.send("p1", "noop", {}))
    sim.call_later(0.5, lambda: sink.send("p2", "noop", {}))
    # same destination, different times
    sim.call_later(1.0, lambda: p1.send("sink", "ping", {"tag": "x"}))
    sim.call_later(2.0, lambda: p2.send("sink", "ping", {"tag": "y"}))
    sim.run()
    det.finish()
    assert det.races == []
    assert det.events_traced > 0


def test_race_cap_bounds_report_volume():
    sim = Simulator()
    det = RaceDetector(max_races=2)
    cluster, sink, p1, p2 = build(sim)
    cluster.attach_race_detector(det)
    for i in range(6):
        sender = p1 if i % 2 else p2
        sim.call_later(0.5, lambda s=sender, i=i: s.send("sink", "ping", {"tag": str(i)}))
    sim.run()
    det.finish()
    assert len(det.races) == 2


# ---------------------------------------------------------------------------
# tie-break perturbation
# ---------------------------------------------------------------------------
def test_kernel_rejects_unknown_tie_break():
    with pytest.raises(SimulationError):
        Simulator(tie_break="random")


def test_perturbation_flips_tied_outcome():
    def scenario(sim):
        _, sink, p1, p2 = build(sim)
        sim.call_later(0.5, lambda: p1.send("sink", "ping", {"tag": "one"}))
        sim.call_later(0.5, lambda: p2.send("sink", "ping", {"tag": "two"}))
        sim.run()
        return ",".join(sink.seen)

    res = perturb_ties(scenario)
    assert res.differs
    assert res.baseline == "one,two"
    assert res.perturbed == "two,one"
    assert "DEPENDS" in res.describe()


def test_perturbation_stable_when_order_is_forced():
    def scenario(sim):
        _, sink, p1, p2 = build(sim)
        # distinct send times: protocol-ordered, no tie to flip
        sim.call_later(0.5, lambda: p1.send("sink", "ping", {"tag": "one"}))
        sim.call_later(0.6, lambda: p2.send("sink", "ping", {"tag": "two"}))
        sim.run()
        return ",".join(sink.seen)

    res = perturb_ties(scenario)
    assert not res.differs
    assert "independent" in res.describe()


def test_perturbation_full_ms_sc_failover_correct_under_both_orders():
    """A full MS+SC deployment driven through a master failover under
    both kernel tie orders.  Tie order may legally change timings, but
    it must never be load-bearing for protocol correctness: every acked
    op stays linearizable and the failover completes either way."""
    from repro.chaos.history import HistoryRecorder
    from repro.chaos.oracle import check_linearizable
    from repro.harness.deploy import Deployment, DeploymentSpec

    def scenario(sim):
        spec = DeploymentSpec(
            shards=1, replicas=3, topology=Topology.MS,
            consistency=Consistency.STRONG, seed=5, standbys=2,
        )
        cluster = SimCluster(
            sim=sim, costs=spec.costs, net_params=spec.net_params, seed=spec.seed
        )
        dep = Deployment(spec, cluster=cluster)
        dep.start()
        recorder = HistoryRecorder(sim)
        client = dep.client("tie", recorder=recorder, max_retries=8)
        sim.run_future(client.connect())
        client.auto_refresh(0.5)
        for i in range(4):
            sim.run_future(client.put(f"k{i}", f"v{i}"))
        victim = dep.kill_replica(0, chain_pos=0)  # the master
        sim.run_until(sim.now + 12.0)  # detection + promotion + sync
        for i in range(4):
            sim.run_future(client.put(f"k{i}", f"w{i}"))
        reads = [sim.run_future(client.get(f"k{i}")) for i in range(4)]
        report = check_linearizable(recorder.records)
        assert report.ok, report.describe()
        assert dep.coordinator.failovers >= 1
        assert reads == [f"w{i}" for i in range(4)]
        return (
            f"victim={victim};failovers={dep.coordinator.failovers};"
            f"reads={','.join(reads)};history={recorder.digest()}"
        )

    res = perturb_ties(scenario)
    # correctness was asserted inside the scenario under BOTH orders;
    # the digests just document whether any tie was observable at all
    assert res.baseline and res.perturbed
    assert res.describe()


# ---------------------------------------------------------------------------
# instrumented chaos soak
# ---------------------------------------------------------------------------
def test_chaos_soak_is_race_free_and_digest_invariant():
    plain = run_combo(Topology.MS, Consistency.EVENTUAL, seed=3,
                      duration=3.0, quiesce=3.0)
    traced = run_combo(Topology.MS, Consistency.EVENTUAL, seed=3,
                       duration=3.0, quiesce=3.0, detect_races=True)
    assert traced.ok
    assert traced.stats["races"] == 0
    assert traced.races == []
    # jittered delivery means ties never collide on one actor; and the
    # instrumentation itself must not perturb the simulation
    assert traced.digest == plain.digest
    assert traced.stats["tied_groups"] >= 0
    assert "races" not in plain.stats
