"""PR 8 headline: hot-path batching throughput.

Three measurements, one per batching layer:

1. **Sequencer group commit** — AA+EC on a write-only, sequencer-bound
   workload, batched (default knobs) vs coalescing disabled (every
   batch cap forced to 1, which reproduces the pre-batching per-op
   protocol).  This is the acceptance figure: >=1.5x.
2. **Chain frame coalescing** — the same A/B on MS+SC, where the win
   comes from fewer chain hops per op (one ``chain_put_batch`` frame
   carries many entries down each link).
3. **Client pipelining** — wall-clock (simulated) drain time of a
   fixed op count through ``PipelinedClient`` vs the same ops awaited
   one at a time.

The asserts below are the gate (CI's ``check-smoke`` job runs this
module); the numbers land in ``benchmarks/results/pr8_batching.json``
and ``pr8_pipelining.json``.
"""

from conftest import save_result

from bench_lib import (
    bench_control,
    bench_costs,
    print_table,
    run_load,
)
from repro.client import PipelinedClient
from repro.core.config import ControlConfig
from repro.core.types import Consistency, Topology
from repro.harness import Deployment, DeploymentSpec
from repro.workloads import OpMix

WRITE_ONLY = OpMix(put=1.0)

#: every hot-path batch capped at one entry: the pre-batching protocol.
UNBATCHED = ControlConfig(group_commit_max=1, chain_batch_max=1,
                          replicate_batch_max=1, ec_batch_max=1)


def _run(topology, consistency, control, shards=4):
    dep = Deployment(
        DeploymentSpec(
            shards=shards, replicas=3, topology=topology,
            consistency=consistency, costs=bench_costs(), control=control,
        )
    )
    dep.start()
    return run_load(dep, WRITE_ONLY, duration=1.0)


def _pipeline_drain_qps(window: int, ops: int = 400) -> float:
    """Simulated seconds to push ``ops`` puts through one client at the
    given pipeline window, as throughput."""
    dep = Deployment(
        DeploymentSpec(shards=1, replicas=3, topology=Topology.AA,
                       consistency=Consistency.EVENTUAL,
                       costs=bench_costs(), control=bench_control())
    )
    dep.start()
    client = dep.client("c0")
    dep.sim.run_future(client.connect())
    pipe = PipelinedClient(client, window=window, window_max=max(window, 1),
                           window_min=1, adaptive=False)
    start = dep.sim.now
    for i in range(ops):
        pipe.put(f"k{i % 50}", "v" * 32)
    dep.sim.run_future(pipe.drain(), timeout=600.0)
    elapsed = dep.sim.now - start
    pipe.stop()
    return ops / elapsed if elapsed > 0 else 0.0


def test_pr8_group_commit_and_chain_frames(benchmark):
    """The acceptance figure: batched vs unbatched on the write path."""

    def run():
        out = {}
        for name, topo, cons in (
            ("aa_ec", Topology.AA, Consistency.EVENTUAL),
            ("ms_sc", Topology.MS, Consistency.STRONG),
        ):
            out[f"{name}_batched_qps"] = _run(topo, cons, bench_control()).qps
            out[f"{name}_unbatched_qps"] = _run(topo, cons, UNBATCHED).qps
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for name in ("aa_ec", "ms_sc"):
        b, u = out[f"{name}_batched_qps"], out[f"{name}_unbatched_qps"]
        out[f"{name}_speedup"] = b / u
        rows.append([name, f"{u / 1e3:.2f}", f"{b / 1e3:.2f}", f"{b / u:.2f}x"])
    print_table("PR8: hot-path batching (write-only mix)",
                ["combo", "unbatched kQPS", "batched kQPS", "speedup"], rows)
    save_result("pr8_batching", out)
    # the sequencer-bound combo is the headline: group commit amortizes
    # the ordering round-trip and the sequencer's per-message CPU
    assert out["aa_ec_speedup"] >= 1.5, out
    # chain frames must win too, if more modestly (per-hop amortization)
    assert out["ms_sc_speedup"] >= 1.2, out


def test_pr8_client_pipelining(benchmark):
    """Windowed submission overlaps request round-trips end to end."""

    def run():
        return {f"window{w}_qps": _pipeline_drain_qps(w) for w in (1, 4, 16)}

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table("PR8: client pipelining (single session, 400 puts)",
                ["window", "QPS"],
                [[w, f"{out[f'window{w}_qps']:.0f}"] for w in (1, 4, 16)])
    save_result("pr8_pipelining", out)
    assert out["window4_qps"] > out["window1_qps"] * 2.0
    assert out["window16_qps"] >= out["window4_qps"] * 0.9
