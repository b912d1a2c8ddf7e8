"""PR 6 — durable datalets: recovery time and the durability tax.

Two measurements the paper's durability story implies but no figure
reports directly:

* **recovery time** — a durable crash-restart (WAL replay from the
  host's DurableStore + delta catch-up from a live peer, back inside
  the detection window) returns a shard to full replicated strength
  faster than the crash-stop path (detection timeout + standby spawn +
  full snapshot sync);
* **durability tax** — the put-throughput cost of write-ahead logging
  as a function of the fsync policy: no WAL, group commit
  (``sync_every=8``), and per-ack fsync (``sync_every=1``).  The
  amortized fsync charge in the cost model makes the tax monotone in
  sync frequency.

The asserts below are the gate; the numbers land in
``benchmarks/results/pr6_durability.json``.
"""

from conftest import save_result

from bench_lib import bench_control, bench_costs, print_table, run_load
from repro.core.config import ControlConfig
from repro.core.types import Consistency, Topology
from repro.harness import Deployment, DeploymentSpec
from repro.workloads import OpMix

PRELOAD_WRITES = 240
RECOVER_AFTER = 0.5  # inside the 3 s detection window


def durable_deployment(seed=11, shards=1, **kw):
    kw.setdefault("durable", True)
    kw.setdefault("control", bench_control())
    spec = DeploymentSpec(
        shards=shards, replicas=3,
        topology=Topology.MS, consistency=Consistency.STRONG,
        costs=bench_costs(),
        standbys=1, seed=seed, **kw,
    )
    dep = Deployment(spec)
    dep.start()
    return dep


def shard_converged(dep, expect):
    """Shard back at full strength with identical replica contents."""
    shard = dep.map.shard("s0")
    if len(shard.replicas) < 3:
        return False
    dumps = []
    for r in shard.ordered():
        if not dep.cluster.is_host_alive(r.host):
            return False
        actor = dep.cluster.actors.get(r.datalet)
        if actor is None:
            return False
        dumps.append(dict(actor.engine.snapshot()))
    return all(d == expect for d in dumps)


def time_to_full_strength(durable_restart, seed=11):
    """Sim seconds from the crash until the shard is fully replicated
    and converged again — via WAL rejoin or via standby replacement."""
    dep = durable_deployment(seed=seed)
    client = dep.client("bench")
    dep.sim.run_future(client.connect())
    expect = {}
    for i in range(PRELOAD_WRITES):
        expect[f"key{i:04d}"] = f"val{i}"
        dep.sim.run_future(client.put(f"key{i:04d}", f"val{i}"))
    victim = dep.replica_host(0, 1)
    t0 = dep.sim.now
    dep.cluster.kill_host(victim)
    record = None
    if durable_restart:
        def recover():
            nonlocal record
            record = dep.recover_host(victim)
        dep.sim.call_later(RECOVER_AFTER, recover)
    deadline = t0 + 60.0
    while dep.sim.now < deadline:
        dep.sim.run_until(dep.sim.now + 0.1)
        if shard_converged(dep, expect):
            return dep.sim.now - t0, record
    raise AssertionError("shard never reconverged after the crash")


def put_throughput(durable, sync_every=1, seed=0):
    # per-op protocol: the tax sweep isolates the WAL fsync *policy*;
    # with hot-path coalescing on, the accept pump already groups WAL
    # commits per frame, flattening the sync_every axis this figure
    # measures (the batch-cap x sync_every interplay is
    # test_ablations.py::test_ablation_ec_batching's job)
    control = ControlConfig(group_commit_max=1, chain_batch_max=1,
                            replicate_batch_max=1, ec_batch_max=1)
    dep = durable_deployment(
        seed=seed, shards=2, durable=durable, wal_sync_every=sync_every,
        control=control,
    )
    result = run_load(dep, OpMix(put=1.0), duration=1.0, keys=500)
    return result.qps


def test_pr6_durability(benchmark):
    def run():
        rejoin_t, record = time_to_full_strength(durable_restart=True)
        replace_t, _ = time_to_full_strength(durable_restart=False)
        qps_off = put_throughput(durable=False)
        qps_group = put_throughput(durable=True, sync_every=8)
        qps_fsync = put_throughput(durable=True, sync_every=1)
        return rejoin_t, record, replace_t, qps_off, qps_group, qps_fsync

    rejoin_t, record, replace_t, qps_off, qps_group, qps_fsync = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )

    print_table(
        "PR6: recovery time to full shard strength (s)",
        ["path", "time", "detail"],
        [
            ["WAL rejoin", f"{rejoin_t:.2f}",
             f"replayed {record.records_applied} records to seq "
             f"{record.replayed_seq} (snapshot seq {record.snapshot_seq})"],
            ["crash-stop + standby", f"{replace_t:.2f}",
             "detection timeout + spawn + full snapshot sync"],
        ],
    )
    tax_group = 100.0 * (1.0 - qps_group / qps_off)
    tax_fsync = 100.0 * (1.0 - qps_fsync / qps_off)
    print_table(
        "PR6: durability tax, 100% PUT (QPS, bench cost scale)",
        ["wal policy", "QPS", "tax"],
        [
            ["off", f"{qps_off:.0f}", "-"],
            ["group commit (sync_every=8)", f"{qps_group:.0f}",
             f"{tax_group:.1f}%"],
            ["fsync per ack (sync_every=1)", f"{qps_fsync:.0f}",
             f"{tax_fsync:.1f}%"],
        ],
    )

    # the durable rejoin skips the detection window and the full resync
    assert rejoin_t < replace_t, (rejoin_t, replace_t)
    assert record is not None and record.replayed_seq >= record.durable_seq_at_crash
    assert record.records_applied + record.snapshot_seq >= PRELOAD_WRITES
    # the tax is real and monotone in fsync frequency; per-ack fsync is
    # dominated by the sync itself (the classic aof-always cliff), and
    # group commit amortizes most of it away
    assert qps_off > qps_group > qps_fsync
    assert tax_fsync < 95.0, "per-ack fsync should tax, not stall"
    assert tax_group < 0.5 * tax_fsync, "group commit should amortize the fsync"

    save_result("pr6_durability", {
        "recovery_time_s": {
            "wal_rejoin": round(rejoin_t, 3),
            "crash_stop_standby": round(replace_t, 3),
            "speedup": round(replace_t / rejoin_t, 2),
        },
        "wal_replay": {
            "records_applied": record.records_applied,
            "replayed_seq": record.replayed_seq,
            "snapshot_seq": record.snapshot_seq,
            "torn_tail_dropped": record.torn_tail_dropped,
        },
        "durability_tax_put_qps": {
            "wal_off": round(qps_off, 1),
            "group_commit_8": round(qps_group, 1),
            "fsync_per_ack": round(qps_fsync, 1),
            "tax_group_pct": round(tax_group, 1),
            "tax_fsync_pct": round(tax_fsync, 1),
        },
    })
