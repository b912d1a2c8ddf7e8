"""PR 10 headline: throughput timeline across an online reshard.

3 shards x 3 replicas per combo, YCSB-A (50% GET) Zipfian load; at
t=6 s the coordinator adds a fourth shard and live-migrates the moved
slice while the sessions keep going.  Shapes we assert:

* the cutover is **online**: throughput during the migration window
  never collapses (dual-routed writes + prefer-new-fallback-old reads
  keep every key reachable while copies are in flight);
* the cluster **recovers**: post-commit throughput is back near the
  pre-reshard level once clients adopt the committed ring;
* keys actually moved — the migration pump did real work, it didn't
  just flip the map.

The asserts below are the gate (CI's ``check-smoke`` job runs this
module); the per-combo before/during/after windows and migration stats
land in ``benchmarks/results/pr10_resharding.json``.
"""

from conftest import save_result

from bench_lib import bespokv_deployment, print_timelines
from repro.core.types import Consistency, Topology
from repro.harness.loadgen import LoadGenerator, preload
from repro.workloads import YCSB_A, make_workload

RESHARD_AT = 5.0
END = 24.0
SHARDS = 3
KEYS = 400

COMBOS = (
    ("ms_sc", Topology.MS, Consistency.STRONG),
    ("ms_ec", Topology.MS, Consistency.EVENTUAL),
    ("aa_sc", Topology.AA, Consistency.STRONG),
    ("aa_ec", Topology.AA, Consistency.EVENTUAL),
)


def run_reshard_case(topology, consistency):
    dep = bespokv_deployment(topology, consistency, SHARDS)
    wl0 = make_workload(YCSB_A, keys=KEYS, seed=1234)
    preload(dep, {wl0.space.key(i): wl0.value() for i in range(KEYS)})

    outcome = {}

    def do_reshard():
        stats = yield dep.request_reshard("add")
        outcome.update(stats)
        outcome["committed_at"] = dep.sim.now - start

    start = dep.sim.now
    dep.sim.call_later(RESHARD_AT, lambda: dep.sim.spawn(do_reshard()))
    lg = LoadGenerator(
        dep,
        lambda i: make_workload(YCSB_A, keys=KEYS, seed=2000 + i),
        clients=6,
        sessions_per_client=4,
        warmup=2.0,
        duration=END - 2.0,
        timeline_interval=1.0,
    )
    result = lg.run(extra_runtime=12.0)
    assert outcome, "reshard did not commit within the run"
    return result, outcome


def window(timeline, a, b, agg=None):
    vals = [q for t, q in timeline if a <= t < b]
    if not vals:
        return 0.0
    if agg == "min":
        return min(vals)
    return sum(vals) / len(vals)


def test_pr10_reshard_under_load(benchmark):
    def run():
        return {name: run_reshard_case(topo, cons)
                for name, topo, cons in COMBOS}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print_timelines(
        "PR10: throughput timeline across an online reshard "
        "(add shard at t=6s)",
        {name: res.timeline for name, (res, _o) in results.items()},
        mark=RESHARD_AT,
    )
    summary = {}
    for name, (res, outcome) in results.items():
        done = outcome["committed_at"]
        before = window(res.timeline, 2.0, RESHARD_AT)
        during = window(res.timeline, RESHARD_AT, done)
        floor = window(res.timeline, RESHARD_AT, done, agg="min")
        after = window(res.timeline, done + 1.0, END - 1.0)
        summary[name] = {
            "before_qps": before,
            "during_qps": during,
            "during_floor_qps": floor,
            "after_qps": after,
            "window_seconds": round(done - RESHARD_AT, 3),
            "keys_moved": outcome["moved"],
            "keys_skipped": outcome["skipped"],
            "pause_ratio": round(1.0 - (floor / before), 4) if before else 1.0,
        }
        print(f"{name}: before={before:.0f} during={during:.0f} "
              f"floor={floor:.0f} after={after:.0f} "
              f"moved={outcome['moved']} window={done - RESHARD_AT:.1f}s")
    save_result("pr10_resharding", summary)

    for name, ph in summary.items():
        # the migration did real work
        assert ph["keys_moved"] > 0, (name, ph)
        # online: the worst 1-second interval inside the window keeps
        # serving a meaningful fraction of the pre-reshard throughput
        assert ph["during_floor_qps"] > ph["before_qps"] * 0.2, (name, ph)
        # and the cluster recovers once the window commits
        assert ph["after_qps"] > ph["before_qps"] * 0.7, (name, ph)
