"""Shared helpers for the benchmark harness.

Every benchmark runs on the discrete-event simulator with a *bench*
cost model (``cpu_scale`` raised so saturation throughput is low enough
to simulate quickly — see DESIGN.md §2: absolute QPS is modeled, only
relative shapes are claimed).  All benchmarks print the rows/series the
corresponding paper table/figure reports, then assert the shape.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.baselines import BaselineDeployment
from repro.core.config import ControlConfig
from repro.core.types import Consistency, Topology
from repro.harness import Deployment, DeploymentSpec
from repro.harness.loadgen import LoadGenerator, RunResult, preload
from repro.sim import CostModel, NetworkParams
from repro.workloads import OpMix, make_workload

__all__ = [
    "BENCH_SCALE",
    "bench_costs",
    "bench_control",
    "bespokv_deployment",
    "run_load",
    "bespokv_run",
    "baseline_run",
    "print_series",
    "print_table",
    "KQPS",
]

#: cpu_scale for benchmark runs; tests use the (faster) default model.
BENCH_SCALE = 600.0

#: keys per benchmark keyspace (small enough to preload instantly,
#: large enough that zipf skew matters).
BENCH_KEYS = 2000


def bench_costs(scale: float = BENCH_SCALE) -> CostModel:
    return CostModel(cpu_scale=scale)


def bench_control() -> ControlConfig:
    return ControlConfig()


def KQPS(result: RunResult) -> float:
    return result.qps / 1e3


def bespokv_deployment(
    topology: Topology,
    consistency: Consistency,
    shards: int,
    replicas: int = 3,
    datalet_kinds: Sequence[str] = ("ht",),
    partitioner: str = "hash",
    costs: Optional[CostModel] = None,
    net_params: Optional[NetworkParams] = None,
    dpdk: bool = False,
    seed: int = 0,
) -> Deployment:
    dep = Deployment(
        DeploymentSpec(
            shards=shards,
            replicas=replicas,
            topology=topology,
            consistency=consistency,
            datalet_kinds=tuple(datalet_kinds),
            partitioner=partitioner,
            costs=costs or bench_costs(),
            net_params=net_params,
            dpdk=dpdk,
            control=bench_control(),
            standbys=1,
            seed=seed,
        )
    )
    dep.start()
    return dep


def _preload_items(keys: int = BENCH_KEYS, value_size: int = 32,
                   spread_alpha: bool = False) -> Dict[str, str]:
    wl = make_workload(OpMix(get=1.0), keys=keys, seed=1234, value_size=value_size,
                       spread_alpha=spread_alpha)
    return {wl.space.key(i): wl.value() for i in range(keys)}


def run_load(
    dep,
    mix: OpMix,
    distribution: str = "zipfian",
    duration: float = 1.0,
    warmup: float = 0.3,
    clients: Optional[int] = None,
    sessions_per_client: int = 12,
    keys: int = BENCH_KEYS,
    value_size: int = 32,
    scan_length: int = 50,
    timeline_interval: float = 0.0,
    extra_runtime: float = 0.0,
    client_factory=None,
    partitioner: str = "hash",
    preload_data: bool = True,
) -> RunResult:
    """Preload, drive closed-loop sessions, return measurements."""
    spread_alpha = partitioner == "range"
    if preload_data:
        items = _preload_items(keys, value_size, spread_alpha=spread_alpha)
        if client_factory is None:
            preload(dep, items, partitioner=partitioner)
        else:
            dep.preload(items)
    # enough closed-loop sessions to saturate the cluster at any size
    # (the paper sizes its client cluster "to saturate the cloud
    # network and server-side CPUs")
    if clients is None:
        if getattr(dep, "spec", None) is not None:
            clients = max(3, dep.spec.shards * dep.spec.replicas)
        else:
            clients = max(3, dep.shards * getattr(dep, "replicas", 1))

    def factory(i: int):
        return make_workload(
            mix, keys=keys, distribution=distribution, seed=1000 + i,
            value_size=value_size, scan_length=scan_length,
            spread_alpha=spread_alpha,
        )

    lg = LoadGenerator(
        dep,
        factory,
        clients=clients,
        warmup=warmup,
        duration=duration,
        timeline_interval=timeline_interval,
        sessions_per_client=sessions_per_client,
        client_factory=client_factory,
        client_kwargs=None if client_factory else {"partitioner": partitioner},
    )
    return lg.run(extra_runtime=extra_runtime)


def bespokv_run(
    topology: Topology,
    consistency: Consistency,
    shards: int,
    mix: OpMix,
    distribution: str = "zipfian",
    replicas: int = 3,
    datalet_kinds: Sequence[str] = ("ht",),
    partitioner: str = "hash",
    seed: int = 0,
    **load_kw,
) -> RunResult:
    dep = bespokv_deployment(
        topology, consistency, shards, replicas=replicas,
        datalet_kinds=datalet_kinds, partitioner=partitioner, seed=seed,
    )
    return run_load(dep, mix, distribution, partitioner=partitioner, **load_kw)


def baseline_run(
    kind: str,
    shards: int,
    mix: OpMix,
    distribution: str = "zipfian",
    replicas: int = 3,
    seed: int = 0,
    **load_kw,
) -> RunResult:
    dep = BaselineDeployment(
        kind, shards=shards, replicas=replicas, costs=bench_costs(), seed=seed
    )
    dep.start()
    return run_load(
        dep, mix, distribution,
        client_factory=lambda name: dep.client(name),
        **load_kw,
    )


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------
def print_table(title: str, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    header = list(header)
    rows = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    print(f"\n=== {title} ===")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def print_series(title: str, x_label: str, xs: List, series: Dict[str, List[float]],
                 unit: str = "kQPS") -> None:
    header = [x_label] + list(series.keys())
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [f"{series[name][i]:.1f}" for name in series])
    print_table(f"{title} ({unit})", header, rows)


_SPARK = " ▁▂▃▄▅▆▇█"


def sparkline(values: List[float], peak: Optional[float] = None) -> str:
    """Render a series as a unicode sparkline (each char one sample)."""
    peak = peak or max(values) or 1.0
    out = []
    for v in values:
        idx = min(len(_SPARK) - 1, int(round(v / peak * (len(_SPARK) - 1))))
        out.append(_SPARK[max(0, idx)])
    return "".join(out)


def print_timelines(title: str, timelines: Dict[str, List], mark: Optional[float] = None) -> None:
    """ASCII rendition of the paper's timeline figures: one sparkline
    per series, all scaled to the global peak; ``mark`` prints a column
    marker (the kill/transition trigger time)."""
    print(f"\n=== {title} ===")
    peak = max((q for series in timelines.values() for _t, q in series), default=1.0)
    width = max(len(name) for name in timelines)
    first = next(iter(timelines.values()))
    if mark is not None and first:
        step = first[1][0] - first[0][0] if len(first) > 1 else 1.0
        pos = int(mark / step) if step else 0
        print(" " * (width + 2) + " " * pos + "v trigger")
    for name, series in timelines.items():
        print(f"{name.ljust(width)}  {sparkline([q for _t, q in series], peak)}")
    print(f"(peak = {peak / 1e3:.1f} kQPS; one column per interval)")
