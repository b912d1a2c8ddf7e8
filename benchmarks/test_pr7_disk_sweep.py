"""PR 7 — the disk-cost plane: snapshot cadence x fsync cadence.

PR 6 measured the durability tax along one axis (``wal_sync_every``).
This sweep fills in the second axis the WAL exposes —
``wal_snapshot_every``, the compaction cadence — because the two knobs
buy different things with the same disk:

* **fsync cadence** (``sync_every``) buys *durability of the ack*:
  every sync is latency on the write path, so put throughput is
  monotone in the cadence;
* **snapshot cadence** (``snapshot_every``) buys *recovery speed*:
  each checkpoint of this sweep's ``ht`` engine rewrites the full
  dataset (write amplification), but bounds the log tail a
  crash-restart must replay — recovery replays at most
  ``snapshot_every + sync_every`` records no matter how long the run
  was.  (An engine with runs, the LSM, ignores this cadence: it
  checkpoints a manifest each time it cuts a run, so its replay bound
  is one memtable plus one batch.)

Each cell drives a fixed number of serial puts through a durable MS+SC
shard (fixed op count, so WAL counters are comparable across cells),
reads the per-datalet WAL counters, then power-cycles one replica
through the real ``Deployment.recover_host`` and reports the replay
length.  The asserts below are the gate; the numbers land in
``benchmarks/results/pr7_disk_sweep.json``.
"""

from conftest import save_result

from bench_lib import bench_control, bench_costs, print_table
from repro.core.types import Consistency, Topology
from repro.harness import Deployment, DeploymentSpec

PUTS = 400
RECOVER_AFTER = 0.5  # inside the detection window: WAL rejoin, not failover
SYNC_EVERY = [1, 8, 64]
SNAPSHOT_EVERY = [32, 256]


def sweep_cell(sync_every: int, snapshot_every: int, seed: int = 11) -> dict:
    spec = DeploymentSpec(
        shards=1, replicas=3,
        topology=Topology.MS, consistency=Consistency.STRONG,
        costs=bench_costs(), control=bench_control(),
        standbys=1, seed=seed,
        durable=True, wal_sync_every=sync_every,
        wal_snapshot_every=snapshot_every,
    )
    dep = Deployment(spec)
    dep.start()
    client = dep.client("bench")
    dep.sim.run_future(client.connect())

    t0 = dep.sim.now
    for i in range(PUTS):
        dep.sim.run_future(client.put(f"key{i:04d}", f"val{i}"))
    elapsed = dep.sim.now - t0

    wals = [
        dep.cluster.actors[r.datalet].wal
        for r in dep.map.shard("s0").ordered()
    ]
    appends = sum(w.appends for w in wals)
    syncs = sum(w.syncs for w in wals)
    snapshots = sum(w.snapshots for w in wals)

    # power-cycle one replica: crash, then WAL rejoin inside the window
    victim = dep.replica_host(0, 1)
    dep.cluster.kill_host(victim)
    record = None

    def recover():
        nonlocal record
        record = dep.recover_host(victim)

    dep.sim.call_later(RECOVER_AFTER, recover)
    dep.sim.run_until(dep.sim.now + 2.0)
    assert record is not None

    return {
        "put_qps": round(PUTS / elapsed, 1),
        "appends": appends,
        "syncs": syncs,
        "snapshots": snapshots,
        "replay_records": record.records_applied,
        "snapshot_seq": record.snapshot_seq,
        "torn_tail_dropped": record.torn_tail_dropped,
        "replayed_seq": record.replayed_seq,
        "durable_seq_at_crash": record.durable_seq_at_crash,
    }


def test_pr7_disk_sweep(benchmark):
    def run():
        return {
            (se, sn): sweep_cell(se, sn)
            for se in SYNC_EVERY
            for sn in SNAPSHOT_EVERY
        }

    cells = benchmark.pedantic(run, rounds=1, iterations=1)

    print_table(
        "PR7: disk-cost plane, 3-replica MS+SC chain, "
        f"{PUTS} serial puts (bench cost scale)",
        ["sync_every", "snapshot_every", "put QPS", "syncs",
         "snapshots", "replay records"],
        [
            [se, sn, f"{c['put_qps']:.0f}", c["syncs"],
             c["snapshots"], c["replay_records"]]
            for (se, sn), c in sorted(cells.items())
        ],
    )

    for sn in SNAPSHOT_EVERY:
        col = [cells[(se, sn)] for se in SYNC_EVERY]
        # fsync cadence: throughput monotone, sync count inversely so
        assert col[0]["put_qps"] < col[1]["put_qps"] < col[2]["put_qps"], col
        assert col[0]["syncs"] > col[1]["syncs"] > col[2]["syncs"], col

    for se in SYNC_EVERY:
        fast, slow = cells[(se, 32)], cells[(se, 256)]
        # snapshot cadence: more compactions (write amplification) ...
        assert fast["snapshots"] > slow["snapshots"], (fast, slow)
        # ... buying a strictly bounded recovery tail in *every* cell
        for sn, c in ((32, fast), (256, slow)):
            assert c["replay_records"] <= sn + se, (sn, se, c)
            assert c["replayed_seq"] >= c["durable_seq_at_crash"], c

    # every replica logged every put exactly once (3-deep chain)
    assert all(c["appends"] == 3 * PUTS for c in cells.values())

    save_result("pr7_disk_sweep", {
        "puts": PUTS,
        "cells": {
            f"sync={se},snap={sn}": {
                k: c[k] for k in
                ("put_qps", "syncs", "snapshots", "replay_records")
            }
            for (se, sn), c in sorted(cells.items())
        },
    })
