"""Durable crash-restart recovery: WAL replay end-to-end, the rejoin
path, and the recovery-correctness oracle (check_recovery)."""

import pytest

from repro.chaos import FaultEvent, FaultSchedule, RecoveryRecord, check_recovery
from repro.chaos.history import OpRecord
from repro.analysis.commitpoints import ack_durable_for
from repro.chaos.runner import run_combo
from repro.core.types import Consistency, Topology
from repro.harness import Deployment, DeploymentSpec
from repro.harness.loadgen import LoadGenerator
from repro.net.message import Message
from repro.sim import CostModel
from repro.workloads import OpMix, make_workload


# ---------------------------------------------------------------------------
# end-to-end: crash a durable replica, power-cycle it back from disk
# ---------------------------------------------------------------------------
def build_durable(**kw):
    kw.setdefault("shards", 1)
    kw.setdefault("replicas", 3)
    kw.setdefault("topology", Topology.MS)
    kw.setdefault("consistency", Consistency.STRONG)
    kw.setdefault("durable", True)
    kw.setdefault("seed", 5)
    dep = Deployment(DeploymentSpec(**kw))
    dep.start()
    return dep


def test_recover_host_replays_wal_and_rejoins():
    dep = build_durable()
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    for i in range(10):
        dep.sim.run_future(client.put(f"k{i}", f"v{i}"))
    victim = dep.replica_host(0, 1)  # mid-chain replica
    dep.cluster.kill_host(victim)
    dep.sim.run_until(dep.sim.now + 0.5)  # inside the detection window
    rec = dep.recover_host(victim)
    assert rec is not None and rec.host == victim
    # sync_every=1: every acked write was fsynced, so replay must
    # recover all of them — the durability floor, with no torn tail
    assert rec.durable_seq_at_crash == 10
    assert rec.replayed_seq >= rec.durable_seq_at_crash
    assert rec.recovered == {f"k{i}": f"v{i}" for i in range(10)}
    dep.sim.run_until(dep.sim.now + 5.0)
    for i in range(10):
        assert dep.sim.run_future(client.get(f"k{i}")) == f"v{i}"


def test_recover_host_group_commit_may_lose_unsynced_tail():
    dep = build_durable(wal_sync_every=4, durable_loss="all", seed=9)
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    for i in range(10):
        dep.sim.run_future(client.put(f"k{i}", f"v{i}"))
    victim = dep.replica_host(0, 2)
    dep.cluster.kill_host(victim)
    dep.sim.run_until(dep.sim.now + 0.5)
    rec = dep.recover_host(victim)
    # group commit: the fsync point trails the ack point, and the crash
    # dropped the whole unsynced suffix -- but never a synced record
    assert rec.durable_seq_at_crash == 8  # last group boundary
    assert rec.replayed_seq >= rec.durable_seq_at_crash
    # catch-up from the surviving chain re-supplies the lost tail
    dep.sim.run_until(dep.sim.now + 5.0)
    for i in range(10):
        assert dep.sim.run_future(client.get(f"k{i}")) == f"v{i}"


def test_recover_host_lsm_replays_runs_manifest_and_log():
    """LSM + durable end to end: flushes and a compaction leave run
    files under the manifest, deletes leave tombstones that shadow
    older runs, and the crashed replica comes back with exactly the
    state its WAL had promised."""
    dep = build_durable(
        topology=Topology.MS, consistency=Consistency.EVENTUAL,
        datalet_kinds=("lsm",),
        engine_kwargs={"lsm": {"memtable_limit": 8, "max_sstables": 3}},
    )
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    records = []

    def run(o, key, value=None):
        invoke = dep.sim.now
        fut = client.put(key, value) if o == "put" else client.delete(key)
        dep.sim.run_future(fut)
        records.append(op(o, key, value, invoke=invoke, response=dep.sim.now))

    for i in range(40):
        run("put", f"k{i:02d}", f"v{i}")
    for i in range(0, 40, 4):
        run("del", f"k{i:02d}")
    for i in range(4):
        run("put", f"n{i}", f"w{i}")
    victim = dep.replica_host(0, 1)
    dep.sim.run_until(dep.sim.now + 2.0)  # let EC replication drain
    replica = next(r for r in dep.map.shard(dep.map.shard_ids()[0]).ordered()
                   if r.host == victim)
    engine = dep.cluster.actor(replica.datalet).engine
    assert engine.flushes >= 5 and engine.compactions >= 1
    runs, tail = engine.checkpoint()
    assert any(v is None for run in runs for v in run.values)  # tombstones in runs
    promised = dict(engine.snapshot())
    assert promised == {**{f"k{i:02d}": f"v{i}" for i in range(40) if i % 4},
                        **{f"n{i}": f"w{i}" for i in range(4)}}

    dep.cluster.kill_host(victim)
    dep.sim.run_until(dep.sim.now + 0.5)
    rec = dep.recover_host(victim)
    assert rec.snapshot_seq > 0  # replay started from a manifest
    assert rec.replayed_seq >= rec.durable_seq_at_crash
    assert rec.recovered == promised
    dep.sim.run_until(dep.sim.now + 5.0)
    dumps = {sid: {r.datalet: dict(dep.cluster.actor(r.datalet).engine.snapshot())
                   for r in dep.map.shard(sid).ordered()}
             for sid in dep.map.shard_ids()}
    report = check_recovery(records, [rec], dumps, strong=False, synced_acks=True,
                            ack_durable=ack_durable_for("ms-ec", 1))
    assert report.ok, report.violations


def test_recover_host_without_durable_falls_back_to_thaw():
    dep = build_durable(durable=False)
    victim = dep.replica_host(0, 1)
    dep.cluster.kill_host(victim)
    assert dep.recover_host(victim) is None
    assert dep.cluster.is_host_alive(victim)


# ---------------------------------------------------------------------------
# full chaos runs with recover-restarts, oracle-gated
# ---------------------------------------------------------------------------
def restart_schedule(target):
    return FaultSchedule(events=[
        FaultEvent(at=3.0, kind="crash", target=target),
        FaultEvent(at=3.6, kind="restart", target=target, recover=True),
    ])


def test_run_combo_recover_restart_replica_passes_oracle():
    res = run_combo(Topology.MS, Consistency.STRONG, seed=4, duration=12.0,
                    schedule=restart_schedule("node0.1"), durable=True)
    assert res.report.ok, res.report.violations
    assert res.stats["recoveries"] == 1


def test_run_combo_recover_restart_ec_master_reconverges():
    """Regression: a rejoined EC master must mint a fresh stream
    incarnation — resuming at seq 0 under the old identity made slaves
    drop every post-rejoin batch as a stale duplicate."""
    res = run_combo(Topology.MS, Consistency.EVENTUAL, seed=4, duration=12.0,
                    schedule=restart_schedule("node0.0"), durable=True)
    assert res.report.ok, res.report.violations
    assert res.stats["recoveries"] == 1


# ---------------------------------------------------------------------------
# the sync_pull source: a cursor exactly as far as its snapshot
# ---------------------------------------------------------------------------
def test_sync_pull_snapshot_holds_the_batches_its_cursor_counts(monkeypatch):
    """Regression: an MS+EC slave answering ``sync_pull`` handed out a
    cursor counting every replicated batch it had accepted, but sent its
    snapshot straight to the datalet, around the batches still in its
    apply pump: the replacement adopted a cursor past writes its data
    lacked."""
    dep = build_durable(consistency=Consistency.EVENTUAL, durable=False)
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    dep.sim.run_future(client.put("seed", "s"))  # establish the stream
    dep.sim.run_until(dep.sim.now + 1.0)
    slave = dep.cluster.actor(dep.shard(0).ordered()[1].controlet)
    master, seq = slave._stream
    # two batches: the first is in flight to the datalet, the second queued
    for i in range(2):
        slave._on_replicate(Message("replicate", {
            "master": master, "start_seq": seq + i,
            "ops": [{"op": "put", "key": f"x{i}", "val": "new"}],
        }, src=master, dst=slave.node_id))
    assert slave._applies.busy and len(slave._applies) == 1
    replies = []
    monkeypatch.setattr(slave, "respond",
                        lambda msg, type, payload=None: replies.append((type, payload)))
    slave._recovery._on_sync_pull(Message(
        "sync_pull", {"controlet": "c.new", "datalet": "d.new"},
        src="c.new", dst=slave.node_id))
    dep.sim.run_until(dep.sim.now + 1.0)
    [state] = [payload for type, payload in replies if type == "sync_state"]
    assert (state["master"], state["seq"]) == (master, seq + 2)
    assert state["data"]["x0"] == state["data"]["x1"] == "new"


COMBOS = [(Topology.MS, Consistency.STRONG), (Topology.MS, Consistency.EVENTUAL),
          (Topology.AA, Consistency.STRONG), (Topology.AA, Consistency.EVENTUAL)]

#: MS+SC seeds on which the head ends holding a different value than the
#: rest of the chain, for a reason outside state transfer (ROADMAP.md,
#: standing findings): the head fails a write whose frame is still
#: queued downstream, re-executes the client's retry after a younger
#: write to the same key, and every chain member skips that retry by its
#: rid.
MS_SC_RETRY_SKIPPED = {3, 4, 5}


def _load_cases():
    for topology, consistency in COMBOS:
        for seed in range(1, 6):
            marks = []
            if topology is Topology.MS and consistency is Consistency.STRONG \
                    and seed in MS_SC_RETRY_SKIPPED:
                marks = [pytest.mark.xfail(strict=True, reason="MS+SC head "
                                           "re-executes a retry its chain skips")]
            yield pytest.param(topology, consistency, seed, marks=marks,
                               id=f"{topology.value}-{consistency.value}-{seed}")


@pytest.mark.parametrize("topology,consistency,seed", list(_load_cases()))
def test_replicas_agree_after_a_replacement_recovers_under_load(
        topology, consistency, seed):
    """The tail's host dies under a write-heavy load that outlasts its
    replacement's ``sync_pull``; after a quiet spell every replica's
    engine is equal.  MS+EC failed on every seed while the source's
    snapshot could overtake its queued replicated batches."""
    dep = Deployment(DeploymentSpec(
        shards=1, replicas=3, topology=topology, consistency=consistency,
        costs=CostModel(cpu_scale=600.0), seed=seed))
    dep.start()
    dep.sim.call_later(1.0 + 0.137 * seed, dep.cluster.kill_host,
                       dep.shard(0).tail.host)
    LoadGenerator(
        dep, lambda i: make_workload(OpMix(put=0.9, get=0.1), keys=200, seed=i),
        clients=8, sessions_per_client=4, duration=5.0,
    ).run()
    dep.sim.run_until(dep.sim.now + 10.0)
    replicas = dep.shard(0).ordered()
    assert len(replicas) == 3 and replicas[-1].controlet.startswith("c.s0.fo")
    engines = [dep.cluster.actor(r.datalet).engine.snapshot() for r in replicas]
    assert all(engine == engines[0] for engine in engines[1:])


# ---------------------------------------------------------------------------
# check_recovery unit cases
# ---------------------------------------------------------------------------
_op_ids = iter(range(10**6))


def op(o, key, value=None, invoke=0.0, response=0.1, status="ok",
       client="c0"):
    return OpRecord(op_id=next(_op_ids), client=client, op=o, key=key,
                    value=value, invoke=invoke, response=response,
                    status=status)


def recovery(**kw):
    kw.setdefault("host", "node0.1")
    kw.setdefault("shard_id", "s0")
    kw.setdefault("datalet", "d0.1")
    kw.setdefault("crash_time", 5.0)
    kw.setdefault("recover_time", 5.5)
    kw.setdefault("durable_seq_at_crash", 0)
    kw.setdefault("replayed_seq", 0)
    kw.setdefault("snapshot_seq", 0)
    kw.setdefault("records_applied", 0)
    kw.setdefault("torn_tail_dropped", 0)
    return RecoveryRecord(**kw)


def test_check_recovery_clean_run():
    records = [op("put", "k", "v", invoke=1.0, response=1.1)]
    recs = [recovery(durable_seq_at_crash=3, replayed_seq=3,
                     records_applied=3, recovered={"k": "v"})]
    dumps = {"s0": {"d0.0": {"k": "v"}, "d0.1": {"k": "v"}}}
    report = check_recovery(records, recs, dumps)
    assert report.ok
    assert report.stats["recoveries"] == 1
    assert report.stats["settled_writes"] == 1


def test_check_recovery_durability_floor():
    report = check_recovery([], [recovery(durable_seq_at_crash=7,
                                          replayed_seq=5)], {})
    assert not report.ok
    assert report.stats["floor_failures"] == 1
    assert "synced record was lost" in report.violations[0]


def test_check_recovery_invented_value():
    records = [op("put", "k", "v", invoke=1.0, response=1.1)]
    recs = [recovery(recovered={"k": "never-written"})]
    report = check_recovery(records, recs, {})
    assert any("never written" in v for v in report.violations)


def test_check_recovery_resurrected_delete_after_replay():
    records = [
        op("put", "k", "v", invoke=1.0, response=1.1),
        op("del", "k", invoke=2.0, response=2.1),
    ]
    recs = [recovery(crash_time=4.0, recovered={"k": "v"})]
    report = check_recovery(records, recs, {}, strong=True, synced_acks=True)
    assert any("resurrected" in v for v in report.violations)
    # without per-ack fsync the replayed state may legally predate the
    # delete; only the *final* converged state is audited then
    assert check_recovery(records, recs, {}, strong=True,
                          synced_acks=False).ok


def test_check_recovery_settled_delete_must_stay_deleted():
    records = [
        op("put", "k", "v", invoke=1.0, response=1.1),
        op("del", "k", invoke=2.0, response=2.1),
    ]
    dumps = {"s0": {"d0.0": {}, "d0.1": {"k": "v"}}}  # one replica kept it
    report = check_recovery(records, [], dumps)
    assert any("resurrected settled-deleted" in v for v in report.violations)


def test_check_recovery_settled_write_must_survive_everywhere():
    records = [op("put", "k", "new", invoke=1.0, response=1.1)]
    stale = {"s0": {"d0.0": {"k": "new"}, "d0.1": {"k": "old"}}}
    report = check_recovery(records, [], stale)
    assert any("settled write" in v for v in report.violations)
    gone = {"s0": {"d0.0": {}, "d0.1": {}}}
    report = check_recovery(records, [], gone)
    assert any("acked write lost" in v for v in report.violations)


def test_check_recovery_non_durable_acks_demote_to_warnings():
    """MS+EC group commit: the ack never implied a durable copy, so a
    crash rolling back the acked unsynced tail (and the rejoined master
    resyncing slaves to it) is legal — reported, but as warnings."""
    records = [op("put", "k", "new", invoke=1.0, response=1.1)]
    stale = {"s0": {"d0.0": {"k": "old"}, "d0.1": {"k": "old"}}}
    report = check_recovery(records, [], stale, strong=False,
                            synced_acks=False, ack_durable=False)
    assert report.ok
    assert report.stats["final_state_issues"] == 2  # one per stale replica
    assert any("legal: acks not durable" in w for w in report.warnings)
    # the durability floor is never relaxed: a *synced* record lost is
    # a violation under any ack regime
    floor = check_recovery([], [recovery(durable_seq_at_crash=7,
                                         replayed_seq=5)], {},
                           strong=False, synced_acks=False,
                           ack_durable=False)
    assert not floor.ok


def test_check_recovery_unsettled_keys_are_not_judged():
    # the failed put's ghost may land at any time: nothing is promised
    records = [
        op("put", "k", "a", invoke=1.0, response=1.1),
        op("put", "k", "b", invoke=2.0, response=None, status="failed"),
    ]
    dumps = {"s0": {"d0.0": {"k": "b"}, "d0.1": {"k": "a"}}}
    assert check_recovery(records, [], dumps).ok
