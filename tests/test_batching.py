"""Batching correctness tier (PR 8).

The hot-path batching layer — sequencer group commit (AA+EC),
coalesced chain frames (MS+SC), per-peer replicate frames (MS+EC),
WAL commit groups, client pipelining — must be invisible to every
correctness contract.  This tier pins:

* per-key FIFO and cross-replica agreement under pipelined concurrent
  load, for all four combos;
* exactly-once request-id dedup when retries ride batched frames,
  including the AA+EC cross-active retry that only the sequencer can
  deduplicate;
* the seeded ``partial-batch-ack`` defect (a batch member acked before
  its frame commits) is caught by BOTH the dynamic chaos oracle and
  the static commit-point analyzer;
* the model checker actually interleaves on batch-frame boundaries
  (``chain_put_batch`` / ``log_append_batch`` deliveries are explored
  choice points) and the healthy batched build stays clean;
* the PR 7 apply-batch-inversion class (catch-up batch overtaken by
  fresh traffic in parallel CPU slots) stays covered with aggressive
  batch knobs.
"""

import os

import pytest

from repro.analysis.commitpoints import analyze_sources
from repro.analysis.explore import explore, replay_trace
from repro.analysis.statespace import (
    INJECTIONS,
    CheckerRun,
    CheckScenario,
    PartialBatchAckMSStrongControlet,
)
from repro.analysis.summaries import build_summaries
from repro.chaos.runner import run_combo, run_soak
from repro.client import PipelinedClient
from repro.core.config import ControlConfig
from repro.core.types import Consistency, Topology
from repro.harness import Deployment, DeploymentSpec
from repro.obs import RequestContext

COMBOS = [
    ("ms-sc", Topology.MS, Consistency.STRONG),
    ("ms-ec", Topology.MS, Consistency.EVENTUAL),
    ("aa-sc", Topology.AA, Consistency.STRONG),
    ("aa-ec", Topology.AA, Consistency.EVENTUAL),
]


def deploy(topology, consistency, seed=5, **kw):
    dep = Deployment(
        DeploymentSpec(shards=1, replicas=3, topology=topology,
                       consistency=consistency, seed=seed, **kw)
    )
    dep.start()
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    return dep, client


def _settle(dep, seconds=3.0):
    dep.sim.run_until(dep.sim.now + seconds)


# ---------------------------------------------------------------------------
# per-key FIFO + convergence under pipelined load
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name,topology,consistency", COMBOS)
def test_pipelined_writes_keep_per_key_fifo(name, topology, consistency):
    """Each key's versions are written in order (awaited per key) while
    many keys are in flight concurrently through coalesced frames; every
    key must read back its last acked version on every replica."""
    dep, client = deploy(topology, consistency)
    pipe = PipelinedClient(client, window=8, window_max=16)

    def key_proc(k, n):
        for j in range(n):
            yield pipe.put(f"key{k}", f"v{j}")

    futs = [dep.sim.spawn(key_proc(k, 6)) for k in range(8)]
    dep.sim.run_future(dep.sim.gather(futs), timeout=240.0)
    pipe.stop()
    _settle(dep)
    for k in range(8):
        value = dep.sim.run_future(client.get(f"key{k}"))
        assert value == "v5", f"{name}: key{k} lost its last write: {value}"
    # replica agreement: the frames did not reorder across the fan-out
    engines = [dep.cluster.actor(f"d0.{i}").engine for i in range(3)]
    for k in range(8):
        values = {e.get(f"key{k}") for e in engines}
        assert values == {"v5"}, f"{name}: replicas diverged on key{k}: {values}"


@pytest.mark.parametrize("name,topology,consistency", COMBOS)
def test_concurrent_same_key_writes_agree(name, topology, consistency):
    """Racing writes to one key may win in any order, but after the
    batched fan-out settles every replica must agree on a single winner
    from the acked set."""
    dep, client = deploy(topology, consistency, seed=9)
    pipe = PipelinedClient(client, window=12, window_max=16)
    futs = [pipe.put("hot", f"v{i}") for i in range(12)]
    dep.sim.run_future(dep.sim.gather(futs), timeout=240.0)
    pipe.stop()
    _settle(dep)
    engines = [dep.cluster.actor(f"d0.{i}").engine for i in range(3)]
    values = {e.get("hot") for e in engines}
    assert len(values) == 1, f"{name}: replicas diverged: {values}"
    winner = values.pop()
    assert winner in {f"v{i}" for i in range(12)}


# ---------------------------------------------------------------------------
# exactly-once rid dedup through batched frames
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name,topology,consistency", COMBOS)
def test_rid_retry_is_exactly_once(name, topology, consistency):
    """A retried delete (same request id) must be answered from the
    dedup path, not re-executed — re-execution would return not_found.
    The batched write path must record rids only at real commit."""
    dep, client = deploy(topology, consistency)
    port = dep.cluster.add_port("tester")
    writer = "c0.0"  # MS head / any AA active
    resp = dep.sim.run_future(port.request(
        writer, "put", {"key": "k", "val": "v"},
        ctx=RequestContext(origin="tester", req_id="tester.1"), timeout=10.0))
    assert resp.type == "ok"
    resp = dep.sim.run_future(port.request(
        writer, "del", {"key": "k"},
        ctx=RequestContext(origin="tester", req_id="tester.2"), timeout=10.0))
    assert resp.type == "ok"
    # the "retry": same rid again, after the original committed
    resp = dep.sim.run_future(port.request(
        writer, "del", {"key": "k"},
        ctx=RequestContext(origin="tester", req_id="tester.2"), timeout=10.0))
    assert resp.type == "ok", f"{name}: retry re-executed: {resp.payload}"
    assert dep.cluster.actor(writer).stats["dup_writes"] >= 1


def test_aa_ec_cross_active_retry_dedups_at_sequencer():
    """A retry routed to a *different* active is invisible to any
    per-controlet cache; only the sequencer (inside a group-commit
    batch) can suppress it."""
    dep, client = deploy(Topology.AA, Consistency.EVENTUAL)
    port = dep.cluster.add_port("tester")
    resp = dep.sim.run_future(port.request(
        "c0.0", "put", {"key": "k", "val": "v"},
        ctx=RequestContext(origin="tester", req_id="tester.9"), timeout=10.0))
    assert resp.type == "ok"
    resp = dep.sim.run_future(port.request(
        "c0.0", "del", {"key": "k"},
        ctx=RequestContext(origin="tester", req_id="tester.10"), timeout=10.0))
    assert resp.type == "ok"
    # retry lands on another active: served via sequencer dup, no re-apply
    resp = dep.sim.run_future(port.request(
        "c0.1", "del", {"key": "k"},
        ctx=RequestContext(origin="tester", req_id="tester.10"), timeout=10.0))
    assert resp.type == "ok", f"cross-active retry re-executed: {resp.payload}"
    assert dep.cluster.actor("sharedlog.s0").dup_appends >= 1


# ---------------------------------------------------------------------------
# must-fail: the partial-batch-ack defect
# ---------------------------------------------------------------------------
def test_partial_batch_ack_caught_by_chaos_oracle():
    """Acking a batch member before its frame commits must surface as a
    linearizability violation under chaos (the ack outruns the chain
    suffix; a failover exposes the stale tail)."""
    res = run_combo(
        Topology.MS, Consistency.STRONG, seed=3, duration=10.0,
        spec_overrides={"controlet_class": PartialBatchAckMSStrongControlet},
    )
    assert not res.ok
    assert "no valid linearization" in res.describe()


def test_partial_batch_ack_found_by_model_checker_with_replay():
    result = explore(
        CheckScenario(combo="ms-sc", ops_per_client=2, crashes=0,
                      inject="partial-batch-ack"),
        summaries=build_summaries(),
    )
    assert not result.ok
    ce = result.counterexample
    assert ce.kind == "consistency"
    replay = replay_trace(ce)
    assert replay.reproduced, replay.describe()


def test_partial_batch_ack_flagged_by_commit_point_analyzer():
    import repro

    root = os.path.dirname(repro.__file__)
    rels = ["core/controlet.py", "core/request.py", "core/ms_sc.py",
            "analysis/statespace.py"]
    pairs = []
    for rel in rels:
        with open(os.path.join(root, rel)) as fh:
            pairs.append((rel, fh.read()))
    findings = [f for f in analyze_sources(pairs)
                if not f.suppressed
                and "PartialBatchAckMSStrongControlet" in f.message]
    assert findings, "analyzer missed the partial-batch-ack defect"
    assert any(f.rule == "ack-before-replication" for f in findings)


def test_injection_is_registered():
    assert "partial-batch-ack" in INJECTIONS


# ---------------------------------------------------------------------------
# model-checker coverage of batched paths
# ---------------------------------------------------------------------------
def test_checker_interleaves_on_batch_frame_boundaries():
    """Batch frames are ordinary pending messages to the checker, so
    frame deliveries are explored choice points.  Drive one healthy
    ms-sc run greedily and observe a ``chain_put_batch`` choice."""
    run = CheckerRun(CheckScenario(combo="ms-sc", clients=1, ops_per_client=2,
                                   crashes=0))
    run.boot()
    seen = set()
    for _ in range(300):
        events = run.enabled()
        if not events:
            break
        seen.update(e.describe.split(" ")[1] for e in events
                    if e.kind == "deliver")
        run.execute(events[0])
    assert "chain_put_batch" in seen, f"no batched frame explored: {seen}"
    assert run.invariant_violation() is None


def test_checker_interleaves_on_group_commit_boundaries():
    run = CheckerRun(CheckScenario(combo="aa-ec", clients=1, ops_per_client=2,
                                   crashes=0))
    run.boot()
    seen = set()
    for _ in range(300):
        events = run.enabled()
        if not events:
            break
        seen.update(e.describe.split(" ")[1] for e in events
                    if e.kind == "deliver")
        run.execute(events[0])
    assert "log_append_batch" in seen, f"no group commit explored: {seen}"


def test_healthy_batched_build_explores_clean():
    result = explore(
        CheckScenario(combo="ms-sc", ops_per_client=2, crashes=0),
        summaries=build_summaries(),
    )
    assert result.ok, result.describe()


# ---------------------------------------------------------------------------
# PR 7 apply-batch-inversion class under batch frames
# ---------------------------------------------------------------------------
def test_apply_batch_inversion_stays_covered_under_batch_frames():
    """Rolling restarts of both EC combos with aggressive batch knobs:
    a recovering node's catch-up batches must not be overtaken by fresh
    frames through the parallel CPU slots (the PR 7 inversion class);
    divergence would fail the soak's replica-agreement check."""
    report = run_soak(
        [3], duration=8.0, rolling_restart=True,
        combos=[(Topology.MS, Consistency.EVENTUAL),
                (Topology.AA, Consistency.EVENTUAL)],
        spec_overrides={"control": ControlConfig(
            group_commit_max=64, chain_batch_max=64, replicate_batch_max=512)},
    )
    assert report.ok, report.describe()
    for res in report.results:
        assert res.stats["recoveries"] > 0


# ---------------------------------------------------------------------------
# batch size knobs are honored
# ---------------------------------------------------------------------------
def test_batch_size_one_disables_coalescing():
    """`--batch 1` (ControlConfig caps at 1) degenerates to the
    unbatched protocol: every frame carries exactly one entry."""
    dep, client = deploy(
        Topology.MS, Consistency.STRONG,
        control=ControlConfig(group_commit_max=1, chain_batch_max=1,
                              replicate_batch_max=1),
    )
    pipe = PipelinedClient(client, window=8, window_max=8)
    futs = [pipe.put(f"k{i}", "v") for i in range(20)]
    dep.sim.run_future(dep.sim.gather(futs), timeout=120.0)
    pipe.stop()
    head = dep.cluster.actor("c0.0").metrics_group()
    assert head["chain_frames"] == head["chain_frame_ops"]  # 1 op per frame
    assert head["chain_frames"] >= 20

# ---------------------------------------------------------------------------
# AIMD window reacts to RPC timeouts (which never reach the histograms)
# ---------------------------------------------------------------------------
def test_rpc_timeouts_shrink_pipeline_window():
    """The KVClient swallows RequestTimeout into retries, so timed-out
    ops never land in the latency histograms — the controller must
    watch the timeout counter delta or it holds the window wide (and
    keeps growing it on stale healthy p99) through congestion."""
    dep, client = deploy(Topology.MS, Consistency.EVENTUAL)
    # target_p99 far above sim latencies: the p99 arm alone always grows
    pipe = PipelinedClient(client, window=16, window_max=32,
                           target_p99=10.0, adaptive=False)
    futs = [pipe.put(f"k{i}", "v") for i in range(4)]
    dep.sim.run_future(dep.sim.gather(futs), timeout=60.0)

    # healthy tick: p99 under target, no timeouts -> additive increase
    pipe._tune()
    assert pipe.window == 17 and pipe.grows == 1

    # timeouts since the last tick: halve even though p99 looks fine
    client.timeouts += 2
    pipe._tune()
    assert pipe.window == 8
    assert pipe.timeout_shrinks == 1 and pipe.shrinks == 1

    # the signal is a delta, not a level: no new timeouts, no shrink
    pipe._tune()
    assert pipe.timeout_shrinks == 1
    assert pipe.window == 9  # healthy p99 resumes additive increase

    # sustained timeouts walk the window down to the floor and stop
    for _ in range(6):
        client.timeouts += 1
        pipe._tune()
    assert pipe.window == pipe.window_min
    assert pipe.timeout_shrinks == 4  # 9 -> 4 -> 2 -> 1, then floored
    pipe.stop()
