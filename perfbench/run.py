"""One run of one workload: measure, check outputs, report.

``--trace 0`` measures the end-to-end metrics with nothing attached.
``--trace 1`` is the separate traced pass that yields every per-layer
metric; its wall numbers are never used end to end.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

from perfbench import ladder, simload, spec, tcpload
from perfbench.spec import SimWorkload, TcpWorkload
from perfbench.tracer import Tracer, install

class Outcome(NamedTuple):
    """What one run found."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]       # failed output checks; empty = correct
    detail: dict              # goes to the result file, not to the driver


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class Effort:
    """How often the repeated parts of a run repeat."""

    setup_builds: int = spec.SETUP_BUILDS
    ladder_calls: int = 4000
    obs_pairs: int = 5


QUICK = Effort(setup_builds=2, ladder_calls=300, obs_pairs=1)


def run_workload(name: str, seed: int, seconds: float, trace: bool, out: Path,
                 quick: bool = False) -> Outcome:
    """``out`` is where the traced pass writes ``trace_<workload>.json``."""
    wl = spec.WORKLOADS[name]
    effort = QUICK if quick else Effort()
    if isinstance(wl, TcpWorkload):
        return (_tcp_traced(wl, seed, seconds, effort) if trace
                else _tcp(wl, seed, seconds, effort))
    return (_sim_traced(wl, seed, seconds, out, effort) if trace
            else _sim(wl, seed, seconds, effort))


# ---------------------------------------------------------------------------
# simulated workloads
# ---------------------------------------------------------------------------
def _sim(wl: SimWorkload, seed: int, seconds: float, effort: Effort) -> Outcome:
    sim_window = wl.sim_s_per_run_s * seconds
    clock = simload.RunClock()
    rig, setup_s, setup_times = simload.median_setup(wl, seed, sim_window, clock,
                                                     effort.setup_builds)
    window = simload.measure_window(rig, sim_window, clock)
    problems = simload.verify(rig)
    metrics = {
        "setup_s": setup_s,
        "wall_ops_per_s": window["wall_ops_per_s"],
        "service_qps": window["service_qps"],
        "service_read_p50_ms": window["service_read_p50_ms"],
        "service_write_p50_ms": window["service_write_p50_ms"],
        "service_p99_ms": window["service_p99_ms"],
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"window": window, "setup_times_s": setup_times,
              "stream_digest": simload.stream_digest(wl, seed)}
    return Outcome(metrics, window["attempted"], window["failed"], problems, detail)


def _sim_traced(wl: SimWorkload, seed: int, seconds: float, out: Path,
                effort: Effort) -> Outcome:
    sim_window = wl.sim_s_per_run_s * seconds
    trace_window = sim_window * spec.TRACE_WINDOW_FRAC
    metrics = {name: 0.0 for name, _, _ in spec.PER_LAYER}
    clock = simload.RunClock()

    # reference: the same window with nothing attached
    ref = simload.Rig(wl, seed, sim_window)
    ref_counts0 = ref.counters()
    ref_window = simload.measure_window(ref, trace_window, clock)
    ref_events = ref.counters()["events"] - ref_counts0["events"]
    del ref

    # traced: same seed, same window; the simulation must not notice
    tracer = Tracer()
    inst = install(tracer)
    try:
        tracer.enabled = True
        rig = simload.Rig(wl, seed, sim_window,
                          on_built=lambda dep: dep.sim.add_tracer(tracer))
        tracer.reset()
        before = rig.counters()
        window = simload.measure_window(rig, trace_window, clock)
        window_ns = int(window["elapsed_s"] * 1e9)
        after = rig.counters()
    finally:
        inst.uninstall()
    problems = simload.verify(rig)
    if window["ops"] != ref_window["ops"]:
        problems.append(f"tracing changed the simulation: {window['ops']} ops traced, "
                        f"{ref_window['ops']} untraced")

    report = tracer.report(window_ns)
    for layer, frac in report["layer_self_frac"].items():
        metrics[f"{layer}.self_frac"] = frac
    metrics["trace.unattributed_frac"] = report["unattributed_frac"]
    metrics["trace.overhead_frac"] = window["wall_s"] / ref_window["wall_s"] - 1.0

    ops = max(1, window["ops"])
    delta = {k: after[k] - before[k] for k in after}
    metrics["kernel.events_per_op"] = delta["events"] / ops
    metrics["kernel.events_per_wall_s"] = ref_events / ref_window["wall_s"]
    metrics["network.msgs_per_op"] = delta["msgs"] / ops
    metrics["network.bytes_per_op"] = delta["bytes"] / ops
    metrics["client.retries_per_op"] = delta["retries"] / ops
    metrics["client.timeouts_per_op"] = delta["timeouts"] / ops
    metrics["client.failed_frac"] = window["failed"] / max(1, window["attempted"])
    appends = delta["log_appends"]
    if appends:
        metrics["sharedlog.entries_per_append"] = appends / max(
            1.0, appends - delta["log_batched_entries"] + delta["log_batches"])
    locks = delta["dlm_grants"] + delta["dlm_contentions"]
    if locks:
        metrics["dlm.contention_frac"] = delta["dlm_contentions"] / locks
    if delta["wal_appends"]:
        metrics["wal.fsyncs_per_op"] = delta["wal_syncs"] / delta["wal_appends"]
    if tracer.user_bytes:
        metrics["wal.bytes_per_user_byte"] = tracer.wal_bytes / tracer.user_bytes
    metrics["datalet.lsm.flushes"] = delta["lsm_flushes"]
    metrics["datalet.lsm.compactions"] = delta["lsm_compactions"]
    util = [v / trace_window for k, v in delta.items() if k.startswith("busy:")]
    nodes = [v / trace_window for k, v in delta.items() if k.startswith("busy:node")]
    metrics["resources.cpu_util_mean"] = statistics.fmean(nodes)
    metrics["resources.cpu_util_max"] = max(util)

    keys, values = _stream_pairs(wl, seed)
    metrics.update(ladder.run(keys, values, lambda i: simload.session_workload(wl, seed, i),
                              effort.ladder_calls))
    obs = _obs_overhead(wl, seed, sim_window * 0.05, clock, effort.obs_pairs)
    metrics.update(obs["metrics"])

    detail = {"window": window, "reference_window": ref_window, "trace": report,
              "obs": obs["detail"], "stream_digest": simload.stream_digest(wl, seed)}
    trace_file = out / f"trace_{wl.name}.json"
    tracer.dump(trace_file, {"workload": wl.name, "seed": seed}, window_ns)
    detail["trace_file"] = str(trace_file)
    return Outcome(metrics, window["attempted"], window["failed"], problems, detail)


def _stream_pairs(wl: SimWorkload, seed: int, count: int = 4000):
    """Keys and values in the order session 0 would use them."""
    stream = simload.session_workload(wl, seed, 0)
    keys = [stream.popularity.next_key() for _ in range(count)]
    values = [stream.value() for _ in range(count)]
    return keys, values


def _obs_overhead(wl: SimWorkload, seed: int, sim_window: float, clock: simload.RunClock,
                  pairs: int) -> dict:
    """CPU time of a short window with the repo's span plane attached
    over the same window without: median of paired ratios."""
    ratios = []
    recorder = None
    ops = 1
    for _ in range(pairs):
        cpu = []
        for attach in (False, True):
            hook = (lambda dep: dep.cluster.attach_obs()) if attach else None
            rig = simload.Rig(wl, seed, sim_window, on_built=hook)
            t0 = time.process_time()
            window = simload.measure_window(rig, sim_window, clock, slices=1)
            cpu.append(time.process_time() - t0)
            if attach:
                recorder, ops = rig.dep.cluster.obs, max(1, window["ops"])
        ratios.append(cpu[1] / cpu[0] - 1.0)
    breakdown = recorder.breakdown()
    stage_ms = {"net": 0.0, "cpu": 0.0, "rpc": 0.0}
    for name, agg in breakdown.items():
        stage = name.split(":", 1)[0]
        if stage in stage_ms:
            stage_ms[stage] += agg["total_ms"]
    traced_ops = sum(agg["count"] for name, agg in breakdown.items()
                     if name.startswith("op:")) or ops
    return {
        "metrics": {
            "obs.on_overhead_frac": statistics.median(ratios),
            "obs.sim_net_ms_per_op": stage_ms["net"] / traced_ops,
            "obs.sim_cpu_ms_per_op": stage_ms["cpu"] / traced_ops,
            "obs.sim_rpc_ms_per_op": stage_ms["rpc"] / traced_ops,
        },
        "detail": {"paired_ratios": ratios, "traced_ops": traced_ops},
    }


# ---------------------------------------------------------------------------
# the socket workload
# ---------------------------------------------------------------------------
def _tcp_phases(rig: tcpload.Rig, wl: TcpWorkload, seconds: float) -> Tuple[dict, List[dict]]:
    gc.collect()
    cpu0 = rig.server.cpu_seconds()
    closed = tcpload.closed_loop(rig, wl.closed_frac * seconds)
    closed["server_cpu_us_per_op"] = (rig.server.cpu_seconds() - cpu0) / closed["ops"] * 1e6
    rungs = []
    for rate, frac in zip(wl.rungs, wl.rung_fracs):
        ops = rig.ops(max(1, int(rate * frac * seconds)))
        rungs.append(tcpload.open_loop(rig.issue, ops, rate, rig.rng))
    return closed, rungs


def _tcp(wl: TcpWorkload, seed: int, seconds: float, effort: Effort) -> Outcome:
    with tcpload.Cores() as cores:
        rig, setup_s, setup_times = tcpload.median_setup(wl, seed, cores,
                                                         effort.setup_builds)
        try:
            closed, rungs = _tcp_phases(rig, wl, seconds)
            problems = tcpload.verify(rig)
        finally:
            rig.close()
    report = next(r for r in rungs if r["offered_per_s"] == wl.report_rung)
    metrics = {
        "setup_s": setup_s,
        "wall_ops_per_s": closed["wall_ops_per_s"],
        # On the socket path the service clock *is* the wall clock; the
        # service numbers are those of the open loop at the reported rung.
        "service_qps": report["achieved_per_s"],
        "service_read_p50_ms": report["read_p50_us"] / 1e3,
        "service_write_p50_ms": report["write_p50_us"] / 1e3,
        "service_p99_ms": report["p99_us_slice_q1"] / 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    attempted = closed["ops"] + sum(r["sent"] for r in rungs)
    failed = closed["failed"] + sum(r["failed"] for r in rungs)
    detail = {"closed": closed, "rungs": rungs, "setup_times_s": setup_times,
              "max_ok_rate": tcpload.max_ok_rate(rungs, wl.p99_limit_us),
              "stream_digest": tcpload.stream_digest(wl, seed)}
    return Outcome(metrics, attempted, failed, problems, detail)


def _tcp_traced(wl: TcpWorkload, seed: int, seconds: float, effort: Effort) -> Outcome:
    metrics = {name: 0.0 for name, _, _ in spec.PER_LAYER}
    with tcpload.Cores() as cores:
        rig = tcpload.Rig(wl, seed, cores)
        try:
            closed, rungs = _tcp_phases(rig, wl, seconds)
            problems = tcpload.verify(rig)
        finally:
            rig.close()
        binary = tcpload.Rig(wl, seed, cores, protocol="binary")
        try:
            binary_closed = tcpload.closed_loop(binary, wl.closed_frac * seconds)
            problems += tcpload.verify(binary)
        finally:
            binary.close()

    metrics["tcp.server_cpu_us_per_op"] = closed["server_cpu_us_per_op"]
    metrics["tcp.client_cpu_us_per_op"] = closed["client_cpu_us_per_op"]
    metrics["tcp.closed_p50_us"] = closed["closed_p50_us"]
    report = next(r for r in rungs if r["offered_per_s"] == wl.report_rung)
    metrics["tcp.send_lag_p99_us"] = report["send_lag_p99_us"]
    for rung in rungs:
        metrics[f"tcp.rung_p99_us.{int(rung['offered_per_s'])}"] = rung["p99_us"]
    metrics["tcp.max_ok_rate"] = tcpload.max_ok_rate(rungs, wl.p99_limit_us)
    metrics["tcp.binary_ops_per_s"] = binary_closed["wall_ops_per_s"]
    attempted = closed["ops"] + sum(r["sent"] for r in rungs) + binary_closed["ops"]
    failed = closed["failed"] + sum(r["failed"] for r in rungs) + binary_closed["failed"]
    metrics["client.failed_frac"] = failed / attempted

    # The socket generator has no ``Workload``; the ladder's workload
    # rungs use the simulated workload with the same keyspace and mix.
    keys = [op[1] for op in rig.ops(4000)]
    values = [rig.values[i % len(rig.values)] for i in range(len(keys))]
    same_mix = spec.WORKLOADS["aa_ec_read"]
    metrics.update(ladder.run(keys, values,
                              lambda i: simload.session_workload(same_mix, seed, i),
                              effort.ladder_calls))
    detail = {"closed": closed, "rungs": rungs, "binary_closed": binary_closed,
              "stream_digest": tcpload.stream_digest(wl, seed)}
    return Outcome(metrics, attempted, failed, problems, detail)


# ---------------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------------
def contract_line(kind: str, outcome: Outcome) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    table = spec.PER_LAYER if kind == "per_layer" else [m[:3] for m in spec.END_TO_END]
    return json.dumps({
        "correct": not outcome.problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit, _ in table},
    })
