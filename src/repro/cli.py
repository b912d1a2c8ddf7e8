"""Command-line interface — the artifact's runnable surface.

The paper's artifact ships ``conkv`` (a datalet server), ``conproxy``
(the controlet) and a bench client.  The equivalents here:

* ``bespokv serve``  — serve a datalet engine over real TCP
  (RESP or framed-binary protocol); the ``conkv`` experience.
* ``bespokv bench``  — stand up a simulated deployment from CLI flags
  (or the artifact's JSON config file) and drive a YCSB-style workload,
  printing throughput/latency.
* ``bespokv demo``   — a 30-second tour: deploy, write, read, kill a
  node, watch failover, switch consistency live.
* ``bespokv chaos``  — seeded randomized fault soak judged by the
  consistency oracles (optionally race-detector instrumented and/or
  payload-sanitized).
* ``bespokv check``  — exhaustive small-scope model check: every
  message/timer/crash interleaving within declared scope bounds, with
  replayable counterexample traces.
* ``bespokv lint``   — static determinism + protocol-conformance
  checks over the package source (text, JSON, or GitHub-annotation
  output).

Installed as the ``bespokv`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.core.config import load_deployment_config
from repro.core.types import Consistency, Topology
from repro.datalet import ENGINE_KINDS, make_engine

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bespokv",
        description="bespokv-py: application-tailored scale-out KV stores (SC'18 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="serve a datalet engine over TCP")
    serve.add_argument("--engine", choices=sorted(ENGINE_KINDS), default="ht")
    serve.add_argument("--protocol", choices=("resp", "binary"), default="resp")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    serve.add_argument("--serve-seconds", type=float, default=None,
                       help="exit after N seconds (default: run until interrupted)")

    bench = sub.add_parser("bench", help="deploy + drive a workload (simulated)")
    bench.add_argument("--config", help="artifact-style JSON deployment config")
    bench.add_argument("--topology", choices=("ms", "aa"), default="ms")
    bench.add_argument("--consistency", choices=("strong", "eventual"), default="eventual")
    bench.add_argument("--shards", type=int, default=4)
    bench.add_argument("--replicas", type=int, default=3)
    bench.add_argument("--datalet", choices=sorted(ENGINE_KINDS), default="ht")
    bench.add_argument("--mix", choices=("a", "b", "e"), default="b",
                       help="YCSB mix: a=50%% GET, b=95%% GET, e=scan-heavy")
    bench.add_argument("--distribution", choices=("zipfian", "uniform"), default="zipfian")
    bench.add_argument("--keys", type=int, default=2000)
    bench.add_argument("--clients", type=int, default=None)
    bench.add_argument("--duration", type=float, default=2.0)
    bench.add_argument("--warmup", type=float, default=0.5)
    bench.add_argument("--cpu-scale", type=float, default=150.0)
    bench.add_argument("--seed", type=int, default=0)

    demo = sub.add_parser("demo", help="guided tour of the framework")
    demo.add_argument("--shards", type=int, default=3)

    chaos = sub.add_parser(
        "chaos",
        help="seeded randomized fault soak + consistency oracle",
        description="Deploy each topology/consistency combo, replay a "
        "random fault schedule drawn from --seed (crashes, asymmetric "
        "partitions, latency spikes, slow nodes, duplication/reorder), "
        "and judge the recorded client history: linearizability for the "
        "strong combos, validity + replica convergence for the eventual "
        "ones.  Identical seeds produce identical runs bit-for-bit.",
    )
    chaos.add_argument("--seed", type=int, action="append", default=None,
                       help="run seed; repeat for a multi-seed soak (default: 1)")
    chaos.add_argument("--duration", type=float, default=15.0,
                       help="chaos window length in simulated seconds")
    chaos.add_argument("--combo", choices=("ms-sc", "ms-ec", "aa-sc", "aa-ec"),
                       action="append", default=None,
                       help="restrict to specific combos (default: all four)")
    chaos.add_argument("--shards", type=int, default=2)
    chaos.add_argument("--replicas", type=int, default=3)
    chaos.add_argument("--clients", type=int, default=3)
    chaos.add_argument("--quiesce", type=float, default=10.0,
                       help="post-chaos settle time before the final read sweep")
    chaos.add_argument("--show-schedule", action="store_true",
                       help="print each run's fault schedule")
    chaos.add_argument("--detect-races", action="store_true",
                       help="instrument the kernel for schedule-sensitive "
                       "same-timestamp conflicts (advisory; never fails the run)")
    chaos.add_argument("--sanitize", action="store_true",
                       help="copy-on-send payload sanitizer: freeze payloads "
                       "at delivery and verify send-vs-delivery digests; an "
                       "aliasing bug raises at the mutating line")
    chaos.add_argument("--trace", action="store_true",
                       help="attach the span recorder; oracle violations are "
                       "printed with the offending requests' full span trees")
    chaos.add_argument("--durable", action="store_true",
                       help="give every datalet a write-ahead log on its "
                       "host's durable store (fsync before ack)")
    chaos.add_argument("--restart", action="store_true",
                       help="durable crash-restart chaos: schedules also draw "
                       "short-downtime power cycles that recover nodes from "
                       "their WAL (implies --durable) and the recovery "
                       "oracle judges every recovery")
    chaos.add_argument("--rolling-restart", action="store_true",
                       help="replace the random schedule with a deterministic "
                       "rolling restart: every data host power-cycles in "
                       "sequence, one at a time, recovering from its WAL "
                       "(implies --durable; the recovery oracle judges every "
                       "recovery)")
    chaos.add_argument("--reshard", action="store_true",
                       help="online resharding under load: add a shard at "
                       "~25%% of the window, drain + remove an original "
                       "shard at ~60%%, live key migration throughout; the "
                       "fault menu drops to mild perturbations (latency, "
                       "slow nodes, duplicates, reorders)")
    chaos.add_argument("--wal-sync-every", type=int, default=1,
                       help="fsync after this many appends (1 = every ack; "
                       ">1 = group commit, crash may lose the unsynced tail)")
    chaos.add_argument("--batch", type=int, default=None, metavar="N",
                       help="cap every hot-path batch at N (sequencer group "
                       "commit, chain frames, replicate frames); 1 disables "
                       "coalescing — the unbatched soak the batching tier "
                       "compares against")

    trace = sub.add_parser(
        "trace",
        help="run a traced workload and print the latency breakdown",
        description="Deploy one combo with the span recorder attached, "
        "drive a small deterministic workload, and print the per-stage "
        "latency breakdown (client op, RPC attempts, network transit, "
        "receiver CPU, backoff).  --out dumps the spans as seed-stable "
        "repro.obs.trace/1 JSONL: the same seed produces byte-identical "
        "files across runs.",
    )
    trace.add_argument("--combo", default="ms-sc",
                       help="topology-consistency combo: ms-sc, ms-ec, "
                       "aa-sc or aa-ec (underscores accepted)")
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--ops", type=int, default=60,
                       help="operations in the deterministic workload")
    trace.add_argument("--shards", type=int, default=2)
    trace.add_argument("--replicas", type=int, default=3)
    trace.add_argument("--out", default=None, metavar="FILE",
                       help="write the span JSONL here")
    trace.add_argument("--check", action="store_true",
                       help="fail if the span tree is malformed "
                       "(dangling spans, missing parents)")
    trace.add_argument("--show-trace", type=int, default=None, metavar="N",
                       help="also render the span tree of trace id N")

    check = sub.add_parser(
        "check",
        help="exhaustive small-scope model check of one combo",
        description="Run the real controlet/coordinator code under a "
        "controlled scheduler and explore EVERY interleaving of message "
        "deliveries, timer advances, crashes and (with --restart) "
        "WAL-recovery restarts within the declared scope bounds (nodes, "
        "ops, crash/restart and advance budgets).  Client histories are "
        "judged by the chaos oracles at every terminal state — the "
        "recovery oracle too when restarts happened; violations come "
        "with a minimal decision trace that --replay re-executes "
        "deterministically.",
    )
    check.add_argument("--combo", choices=("ms-sc", "ms-ec", "aa-sc", "aa-ec"),
                       default="ms-sc")
    check.add_argument("--nodes", type=int, default=2,
                       help="replicas in the (single) shard")
    check.add_argument("--clients", type=int, default=1)
    check.add_argument("--ops", type=int, default=3,
                       help="operations per client (alternating put/get on one key)")
    check.add_argument("--crashes", type=int, default=1,
                       help="crash fault budget per schedule")
    check.add_argument("--restart", "--restarts", dest="restarts", type=int,
                       nargs="?", const=1, default=0, metavar="N",
                       help="restart budget per schedule: crashed hosts may "
                       "power back on mid-interleaving through the real "
                       "WAL-replay + stale-rejoin recovery path (implies "
                       "--durable; budget 1 when given without a value)")
    check.add_argument("--durable", action="store_true",
                       help="WAL-backed datalets on per-host durable stores; "
                       "durable contents fold into the state fingerprints")
    check.add_argument("--wal-sync-every", type=int, default=1,
                       help="fsync cadence for --durable (1 = every append; "
                       ">1 = group commit, crash loses the unsynced tail)")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--inject", default=None, metavar="DEFECT",
                       help="seed a named known-bad build (early-ack, or "
                       "unsynced-ack for the ack-before-durable defect the "
                       "recovery oracle catches under --restart) to "
                       "demonstrate counterexample discovery")
    check.add_argument("--advance-budget", type=int, default=40,
                       help="scope bound on timer/clock advances per path")
    check.add_argument("--lazy-network", action="store_true",
                       help="drop the maximal-progress reduction: interleave "
                       "time advances with pending deliveries (much larger "
                       "space; only tractable for the smallest scenarios)")
    check.add_argument("--max-states", type=int, default=20000)
    check.add_argument("--max-depth", type=int, default=200)
    check.add_argument("--time-budget", type=float, default=None,
                       help="wall-clock search budget in seconds")
    check.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write the counterexample trace JSON here")
    check.add_argument("--replay", metavar="TRACE", default=None,
                       help="re-execute a previously written counterexample "
                       "trace instead of exploring")

    lint = sub.add_parser(
        "lint",
        help="static determinism + protocol-conformance checks",
        description="Run the repro.analysis passes over the package "
        "source: the determinism linter (wall-clock reads, unseeded or "
        "ad-hoc RNG, set-order iteration, builtin hash()/id() ordering "
        "in protocol code) and the protocol-conformance checker "
        "(message types sent but never handled, handlers registered "
        "for types nothing sends) plus the commit-point and flow-control "
        "passes (pump-liveness, backpressure, retry-idempotency, "
        "config-epoch fencing).  Exit 1 on unsuppressed errors; "
        "--strict also fails on warnings.",
    )
    lint.add_argument("--root", default=None,
                      help="package root to scan (default: the installed repro package)")
    lint.add_argument("--strict", action="store_true",
                      help="treat warnings as failures")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="also print findings silenced by pragmas/allowlist")
    lint.add_argument("--no-conformance", action="store_true",
                      help="skip the protocol-conformance pass")
    lint.add_argument("--no-flow", action="store_true",
                      help="skip the flow-control passes")
    lint.add_argument("--inject-flow-defects", action="store_true",
                      help="also run the flow passes over the seeded "
                      "known-bad builds in analysis/flowdefects.py; "
                      "MUST exit 1 (CI's must-fail regression step)")
    lint.add_argument("--format", choices=("text", "json", "github"),
                      default="text",
                      help="text = human lines; json = versioned machine "
                      "envelope; github = ::error/::warning workflow "
                      "commands for inline PR annotations")
    lint.add_argument("--path-prefix", default="src/repro/",
                      help="prefix rebasing lint-relative paths onto "
                      "repo-relative ones for --format github")
    return parser


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.net.tcp import DataletServer

    engine = make_engine(args.engine)
    server = DataletServer(engine, protocol=args.protocol, host=args.host, port=args.port)
    host, port = server.start()
    print(f"datalet engine={args.engine} protocol={args.protocol} "
          f"listening on {host}:{port}")
    if args.protocol == "resp":
        print(f"try: redis-cli -h {host} -p {port}  (SET/GET/DEL/SCAN/DBSIZE/PING)")
    try:
        if args.serve_seconds is not None:
            # real TCP server: bounded wall sleep is the whole point
            time.sleep(args.serve_seconds)  # lint: allow[wallclock]
        else:  # pragma: no cover - interactive path
            while True:
                time.sleep(3600)  # lint: allow[wallclock]
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.stop()
    print("server stopped")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------
def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.harness import Deployment, DeploymentSpec
    from repro.harness.loadgen import LoadGenerator, preload
    from repro.sim import CostModel
    from repro.workloads import YCSB_A, YCSB_B, YCSB_E, make_workload

    if args.config:
        cfg = load_deployment_config(args.config)
        topology, consistency = cfg.topology, cfg.consistency
        replicas = cfg.num_replicas
        datalet = cfg.datalet_kinds[0]
    else:
        topology = Topology(args.topology)
        consistency = Consistency(args.consistency)
        replicas = args.replicas
        datalet = args.datalet

    spec = DeploymentSpec(
        shards=args.shards, replicas=replicas, topology=topology,
        consistency=consistency, datalet_kinds=(datalet,),
        costs=CostModel(cpu_scale=args.cpu_scale), seed=args.seed,
    )
    dep = Deployment(spec)
    dep.start()

    mix = {"a": YCSB_A, "b": YCSB_B, "e": YCSB_E}[args.mix]
    wl0 = make_workload(mix, keys=args.keys, seed=1234)
    preload(dep, {wl0.space.key(i): wl0.value() for i in range(args.keys)})

    clients = args.clients or max(3, args.shards * replicas)
    lg = LoadGenerator(
        dep,
        lambda i: make_workload(mix, keys=args.keys,
                                distribution=args.distribution, seed=1000 + i),
        clients=clients, warmup=args.warmup, duration=args.duration,
    )
    # wall-clock timing of the *simulation itself* (reported as
    # simulated-seconds-per-wall-second), not simulated time
    t0 = time.time()  # lint: allow[wallclock]
    result = lg.run()
    wall = time.time() - t0  # lint: allow[wallclock]
    label = f"{topology.value.upper()}+{'SC' if consistency is Consistency.STRONG else 'EC'}"
    print(f"{label}  {args.shards}x{replicas} {datalet} datalets  "
          f"mix={args.mix} dist={args.distribution}")
    print(result)
    print(f"(simulated {args.warmup + args.duration:.1f}s in {wall:.1f}s wall, "
          f"{dep.sim.events_processed:,} events)")
    return 0


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------
def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.harness import Deployment, DeploymentSpec

    dep = Deployment(DeploymentSpec(shards=args.shards, replicas=3,
                                    topology=Topology.MS,
                                    consistency=Consistency.EVENTUAL))
    dep.start()
    sim = dep.sim
    client = dep.client("demo")
    sim.run_future(client.connect())
    print(f"deployed {args.shards} shards x 3 replicas (MS+EC)")
    for i in range(5):
        sim.run_future(client.put(f"key{i}", f"value{i}"))
    sim.run_until(sim.now + 1.0)
    print("key3 ->", sim.run_future(client.get("key3")))
    victim = dep.kill_replica(0, chain_pos=0)
    print(f"killed master host {victim!r} ...")
    sim.run_until(sim.now + 12.0)
    print(f"failover complete (failovers={dep.coordinator.failovers}, "
          f"epoch={dep.map.epoch}); key3 ->", sim.run_future(client.get("key3")))
    print("switching to MS+SC live ...")
    sim.run_future(dep.request_transition(Topology.MS, Consistency.STRONG))
    sim.run_future(client.put("final", "strong"))
    print("final ->", sim.run_future(client.get("final")),
          f"(now {dep.shard(0).topology.value.upper()}+SC, epoch {dep.map.epoch})")
    return 0


# ---------------------------------------------------------------------------
# chaos
# ---------------------------------------------------------------------------
def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import run_soak
    from repro.chaos.runner import ALL_COMBOS
    from repro.errors import ConfigError

    combo_by_flag = {
        "ms-sc": (Topology.MS, Consistency.STRONG),
        "ms-ec": (Topology.MS, Consistency.EVENTUAL),
        "aa-sc": (Topology.AA, Consistency.STRONG),
        "aa-ec": (Topology.AA, Consistency.EVENTUAL),
    }
    combos = (
        [combo_by_flag[c] for c in args.combo] if args.combo else list(ALL_COMBOS)
    )
    seeds = args.seed or [1]
    spec_overrides = {}
    if args.wal_sync_every != 1:
        spec_overrides["wal_sync_every"] = args.wal_sync_every
    if args.batch is not None:
        from repro.core.config import ControlConfig

        spec_overrides["control"] = ControlConfig(
            group_commit_max=args.batch,
            chain_batch_max=args.batch,
            replicate_batch_max=args.batch,
        )
    # wall-clock soak duration for the operator, not simulated time
    t0 = time.time()  # lint: allow[wallclock]
    try:
        report = run_soak(
            seeds,
            duration=args.duration,
            combos=combos,
            shards=args.shards,
            replicas=args.replicas,
            clients=args.clients,
            quiesce=args.quiesce,
            detect_races=args.detect_races,
            sanitize=args.sanitize,
            trace=args.trace,
            durable=args.durable or args.restart or args.rolling_restart,
            restarts=args.restart,
            rolling_restart=args.rolling_restart,
            reshard=args.reshard,
            spec_overrides=spec_overrides or None,
        )
    except ConfigError as e:
        print(f"chaos: {e}", file=sys.stderr)
        return 2
    if args.show_schedule:
        for result in report.results:
            print(f"--- {result.label} seed={result.seed} schedule ---")
            print(result.schedule.describe())
    print(report.describe())
    if args.sanitize:
        n_sends = sum(r.stats.get("sanitized_sends", 0) for r in report.results)
        n_viol = sum(r.stats.get("payload_violations", 0) for r in report.results)
        print(f"payload sanitizer: {n_viol} violations "
              f"({n_sends} sends digested + frozen)")
    if args.detect_races:
        n_races = sum(r.stats.get("races", 0) for r in report.results)
        n_tied = sum(r.stats.get("tied_groups", 0) for r in report.results)
        print(f"race detector: {n_races} schedule-sensitive conflicts "
              f"({n_tied} tied event groups examined)")
    if args.trace:
        _print_violation_traces(report)
    if args.reshard:
        n_rs = sum(r.stats.get("reshards", 0) for r in report.results)
        n_moved = sum(r.stats.get("keys_migrated", 0) for r in report.results)
        print(f"online resharding: {n_rs} cutovers committed "
              f"({n_moved} keys migrated live)")
    if args.durable or args.restart or args.rolling_restart:
        n_rec = sum(r.stats.get("recoveries", 0) for r in report.results)
        n_torn = sum(r.stats.get("torn_tails", 0) for r in report.results)
        print(f"durable recovery: {n_rec} crash-restart recoveries "
              f"({n_torn} torn WAL tails dropped)")
    print(f"({len(report.results)} runs in {time.time() - t0:.1f}s wall)")  # lint: allow[wallclock]
    return 0 if report.ok else 1


def _print_violation_traces(report, limit: int = 8) -> None:
    """Span trees of the requests behind each failing run's violations."""
    import re

    for result in report.results:
        if result.ok or result.recorder is None:
            continue
        keys: List[str] = []
        for violation in result.report.violations:
            m = re.match(r"(?:key|client \S+ key) '([^']*)'", violation)
            if m and m.group(1) not in keys:
                keys.append(m.group(1))
        shown = 0
        for rec in result.records:
            if rec.key not in keys or rec.trace_id is None:
                continue
            if shown >= limit:
                print(f"  ... more traced ops on violating keys omitted "
                      f"(limit {limit})")
                break
            print(f"--- {result.label} seed={result.seed}: {rec.op} "
                  f"{rec.key!r} by {rec.client} status={rec.status} "
                  f"(trace {rec.trace_id}) ---")
            print(result.recorder.format_trace(rec.trace_id))
            shown += 1


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------
def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.errors import BespoError
    from repro.harness import Deployment, DeploymentSpec

    combo_by_flag = {
        "ms-sc": (Topology.MS, Consistency.STRONG),
        "ms-ec": (Topology.MS, Consistency.EVENTUAL),
        "aa-sc": (Topology.AA, Consistency.STRONG),
        "aa-ec": (Topology.AA, Consistency.EVENTUAL),
    }
    name = args.combo.replace("_", "-")
    if name not in combo_by_flag:
        print(f"trace: unknown combo {args.combo!r} "
              f"(expected one of {sorted(combo_by_flag)})", file=sys.stderr)
        return 2
    topology, consistency = combo_by_flag[name]
    dep = Deployment(DeploymentSpec(
        shards=args.shards, replicas=args.replicas,
        topology=topology, consistency=consistency, seed=args.seed,
    ))
    recorder = dep.cluster.attach_obs()  # before start(): hook every actor
    dep.start()
    sim = dep.sim
    client = dep.client("trace")
    sim.run_future(client.connect())
    # Deterministic op sequence: put-heavy with reads and the odd delete,
    # cycling a small keyspace — no RNG, so the span stream depends only
    # on (combo, seed, ops).
    for i in range(args.ops):
        key = f"k{i % 8}"
        try:
            if i % 3 == 2:
                sim.run_future(client.get(key))
            elif i % 7 == 6:
                sim.run_future(client.delete(key))
            else:
                sim.run_future(client.put(key, f"v{i}"))
        except BespoError:
            pass  # e.g. delete of a never-written key
    sim.run_until(sim.now + 1.0)  # let replication tails close their spans

    errors = recorder.validate()
    label = f"{topology.value.upper()}+{'SC' if consistency is Consistency.STRONG else 'EC'}"
    print(f"{label} seed={args.seed} ops={args.ops}: "
          f"{len(recorder.spans)} spans recorded")
    print(recorder.breakdown_table())
    if args.show_trace is not None:
        print(f"--- trace {args.show_trace} ---")
        print(recorder.format_trace(args.show_trace))
    if errors:
        print(f"span tree: {len(errors)} problem(s)")
        for e in errors[:20]:
            print(f"  {e}")
    else:
        print("span tree: well-formed")
    if args.out:
        recorder.dump(args.out, meta={
            "combo": name, "seed": args.seed, "ops": args.ops,
        })
        print(f"spans -> {args.out}")
    if args.check and errors:
        return 1
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------
def _cmd_check(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.explore import CounterTrace, explore, replay_trace
    from repro.analysis.statespace import INJECTIONS, CheckScenario

    if args.replay:
        trace = CounterTrace.from_json(Path(args.replay).read_text())
        result = replay_trace(trace)
        print(result.describe())
        return 0 if result.reproduced else 1

    if args.inject is not None and args.inject not in INJECTIONS:
        known = ", ".join(sorted(INJECTIONS)) or "(none)"
        print(f"check: unknown injection {args.inject!r}; known: {known}",
              file=sys.stderr)
        return 2
    scenario = CheckScenario(
        combo=args.combo,
        nodes=args.nodes,
        clients=args.clients,
        ops_per_client=args.ops,
        crashes=args.crashes,
        restarts=args.restarts,
        durable=args.durable or args.restarts > 0,
        wal_sync_every=args.wal_sync_every,
        seed=args.seed,
        advance_budget=args.advance_budget,
        eager_network=not args.lazy_network,
        inject=args.inject,
    )
    result = explore(
        scenario,
        max_states=args.max_states,
        max_depth=args.max_depth,
        time_budget=args.time_budget,
    )
    print(result.describe())
    if result.counterexample is not None:
        if args.trace_out:
            Path(args.trace_out).write_text(result.counterexample.to_json() + "\n")
            print(f"counterexample trace -> {args.trace_out} "
                  f"(replay with: bespokv check --replay {args.trace_out})")
        return 1
    return 0


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------
def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        FLOW_INJECTION_SOURCES,
        SourceIndex,
        analyze_flow_sources,
        findings_to_json,
        format_findings,
        format_github,
        run_lint,
        summarize,
    )

    index = SourceIndex.from_root(Path(args.root) if args.root else None)
    findings = run_lint(index, conformance=not args.no_conformance,
                        flow=not args.no_flow)
    if args.inject_flow_defects:
        findings.extend(analyze_flow_sources(
            index.under(*FLOW_INJECTION_SOURCES)))
    counts = summarize(findings)
    if args.format == "json":
        print(findings_to_json(findings))
    elif args.format == "github":
        annotations = format_github(findings, prefix=args.path_prefix)
        if annotations:
            print(annotations)
        print(f"lint: {counts['errors']} error(s), {counts['warnings']} "
              f"warning(s), {counts['suppressed']} suppressed")
    else:
        visible = [f for f in findings if not f.suppressed]
        if args.show_suppressed:
            visible = list(findings)
        if visible:
            print(format_findings(visible))
        print(f"lint: {counts['errors']} error(s), {counts['warnings']} "
              f"warning(s), {counts['suppressed']} suppressed")
    if counts["errors"]:
        return 1
    if args.strict and counts["warnings"]:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "serve": _cmd_serve,
        "bench": _cmd_bench,
        "demo": _cmd_demo,
        "chaos": _cmd_chaos,
        "trace": _cmd_trace,
        "check": _cmd_check,
        "lint": _cmd_lint,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
