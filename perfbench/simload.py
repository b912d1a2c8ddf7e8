"""The five simulated workloads: set-up, closed-loop driver, checks.

perfbench drives sessions with its own generator processes over
``KVClient`` and does its own op counting and latency recording, so a
later PR cannot change how ops are counted by editing ``repro.harness``.
"""

from __future__ import annotations

import gc
import hashlib
import os
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.types import Consistency, Topology
from repro.datalet import WriteAheadLog, make_engine
from repro.errors import BespoError, KeyNotFound
from repro.harness import Deployment, DeploymentSpec
from repro.hashing import HashRing, RangePartitioner
from repro.sim import CostModel
from repro.workloads import OpMix, Workload, make_workload

from perfbench import spec
from perfbench.spec import SimWorkload


# ---------------------------------------------------------------------------
# the wall clock, less what the hypervisor took
# ---------------------------------------------------------------------------
class RunClock:
    """Seconds this process's core was really running it.

    The sandbox is a VM on a shared host: for minutes at a time the
    hypervisor gives the vCPU to someone else for up to two thirds of
    every second (one ``aa_sc_lock`` run read 1 260 ops/s between runs
    reading 3 900).  The kernel counts that as *steal* time per CPU in
    ``/proc/stat``.  The simulated workloads are one thread that never
    idles, so the process is pinned to one CPU and each timing is wall
    time minus that CPU's steal over the same interval.  Where
    ``/proc/stat`` cannot be read this is the plain wall clock."""

    def __init__(self) -> None:
        self.cpu: Optional[int] = None
        if hasattr(os, "sched_getaffinity"):
            self.cpu = max(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {self.cpu})
        self._tick = 1.0 / os.sysconf("SC_CLK_TCK")

    def stolen(self) -> float:
        if self.cpu is None:
            return 0.0
        try:
            with open("/proc/stat") as fh:
                for line in fh:
                    if line.startswith(f"cpu{self.cpu} "):
                        return int(line.split()[8]) * self._tick
        except (OSError, IndexError, ValueError):
            pass
        return 0.0

    def __call__(self) -> float:
        return time.perf_counter() - self.stolen()


# ---------------------------------------------------------------------------
# inputs: everything derives from --seed
# ---------------------------------------------------------------------------
def session_workload(wl: SimWorkload, seed: int, index: int) -> Workload:
    get, put, scan = wl.mix
    return make_workload(
        OpMix(get=get, put=put, scan=scan), keys=wl.keys, distribution=wl.distribution,
        value_size=wl.value_size, scan_length=spec.SCAN_LENGTH,
        seed=seed * 100003 + index, spread_alpha=wl.partitioner == "range",
    )


def preload_items(wl: SimWorkload, seed: int) -> Dict[str, str]:
    src = make_workload(OpMix(get=1.0), keys=wl.keys, value_size=wl.value_size,
                        seed=seed * 7919 + 1, spread_alpha=wl.partitioner == "range")
    return {src.space.key(i): src.value() for i in range(wl.keys)}


def stream_digest(wl: SimWorkload, seed: int, ops_per_session: int = 100) -> str:
    """Digest of each session's first generated ops, from fresh copies
    of the session streams: a changed op stream between two commits is
    then visible in the result file rather than silent."""
    h = hashlib.sha256()
    for i in range(wl.sessions):
        stream = session_workload(wl, seed, i)
        for _ in range(ops_per_session):
            h.update(repr(stream.next_op()).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# the closed-loop driver
# ---------------------------------------------------------------------------
class Driver:
    """Counts what the sessions complete.  Each session sends its next
    op when the previous one completes (the paper's methodology)."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.running = True
        self.measuring = False
        self.completed = 0
        self.failed = 0
        #: latencies of reads (get, scan) and of writes, kept apart: in a
        #: 50/50 mix the pooled median sits on the edge between the two
        #: and flips from seed to seed
        self.read_latencies: List[float] = []
        self.write_latencies: List[float] = []
        #: key -> [(ack_time, value)]: every put that may be the key's
        #: final value (a put drops out once another put was *invoked*
        #: after its ack).  A failed put stays a candidate for good.
        self.candidates: Dict[str, List[Tuple[float, str]]] = {}
        self.written: Dict[str, set] = {}

    def session(self, client, stream: Workload):
        sim = self.sim
        while self.running:
            op = stream.next_op()
            kind = op[0]
            t0 = sim.now
            try:
                if kind == "get":
                    yield client.get(op[1])
                elif kind == "put":
                    yield client.put(op[1], op[2])
                else:
                    yield client.scan(op[1], spec.SCAN_END, limit=op[2])
            except KeyNotFound:
                pass  # a read racing nothing is still a served op
            except BespoError:
                self.failed += 1
                if kind == "put":
                    self._record_put(op[1], op[2], t0, float("inf"))
                continue
            t1 = sim.now
            self.completed += 1
            if kind == "put":
                self._record_put(op[1], op[2], t0, t1)
                if self.measuring:
                    self.write_latencies.append(t1 - t0)
            elif self.measuring:
                self.read_latencies.append(t1 - t0)

    def _record_put(self, key: str, value: str, invoked: float, acked: float) -> None:
        cands = self.candidates.get(key)
        if cands is None:
            self.candidates[key] = [(acked, value)]
            self.written[key] = {value}
            return
        cands[:] = [c for c in cands if c[0] >= invoked]
        cands.append((acked, value))
        self.written[key].add(value)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
class Rig:
    """One built, preloaded, connected and warmed-up deployment."""

    def __init__(self, wl: SimWorkload, seed: int, sim_window: float,
                 on_built: Optional[Callable[[Deployment], None]] = None) -> None:
        """``on_built`` runs on the new deployment before it starts (the
        traced pass hooks the kernel there, the obs pass the span plane)."""
        self.wl = wl
        self.seed = seed
        self.sim_window = sim_window
        self.dep = Deployment(DeploymentSpec(
            shards=spec.SHARDS, replicas=spec.REPLICAS,
            topology=Topology(wl.topology), consistency=Consistency(wl.consistency),
            datalet_kinds=(wl.engine,), engine_kwargs=dict(wl.engine_kwargs),
            partitioner=wl.partitioner, costs=CostModel(cpu_scale=spec.COST_SCALE),
            standbys=spec.STANDBYS, seed=seed, durable=wl.durable,
            wal_sync_every=wl.wal_sync_every,
        ))
        if on_built is not None:
            on_built(self.dep)
        self.dep.start()
        self.sim = self.dep.sim
        self.items = preload_items(wl, seed)
        self._preload()
        self.clients = [self.dep.client(f"pb{i}") for i in range(spec.CLIENTS)]
        for client in self.clients:
            self.sim.run_future(client.connect())
        self.driver = Driver(self.sim)
        self.session_futures = [
            self.sim.spawn(self.driver.session(self.clients[i % spec.CLIENTS],
                                               session_workload(wl, seed, i)))
            for i in range(wl.sessions)
        ]
        self.sim.run_until(self.sim.now + spec.WARMUP_FRAC * sim_window)

    def shard_lookup(self):
        shard_ids = self.dep.map.shard_ids()
        if self.wl.partitioner == "range":
            return RangePartitioner.uniform_alpha(shard_ids).lookup
        return HashRing(shard_ids).lookup

    def _preload(self) -> None:
        """Bulk-load every replica's engine directly, routed exactly as
        the client library routes, so measurement starts from a
        populated, fully replicated store."""
        lookup = self.shard_lookup()
        engines = {
            sid: [self.dep.cluster.actor(r.datalet).engine
                  for r in self.dep.map.shard(sid).ordered()]
            for sid in self.dep.map.shard_ids()
        }
        for key, value in self.items.items():
            for engine in engines[lookup(key)]:
                engine.put(key, value)

    # -- counters read from outside, through public attributes ------------
    def counters(self) -> Dict[str, float]:
        cluster = self.dep.cluster
        groups = cluster.metrics.snapshot()["groups"]

        def total(names, field: str) -> float:
            return sum(groups[n].get(field, 0.0) for n in names)

        replicas = [r for sid in self.dep.map.shard_ids()
                    for r in self.dep.map.shard(sid).ordered()]
        datalets = [r.datalet for r in replicas]
        engines = [cluster.actor(d).engine for d in datalets]
        clients = [f"client.{c.name}" for c in self.clients]
        logs = list(self.dep.sharedlogs.values())
        busy = {h: cluster.host_cpu(h).busy_time / cluster.host_cpu(h).capacity
                for h in cluster.hosts() if not h.startswith("pb")}
        out = {
            "events": float(self.sim.events_processed),
            "msgs": float(cluster.network.messages_sent),
            "bytes": float(cluster.network.bytes_sent),
            "retries": total(clients, "retries"),
            "timeouts": total(clients, "timeouts"),
            "log_appends": total(logs, "appends"),
            "log_batches": total(logs, "batch_appends"),
            "log_batched_entries": total(logs, "batched_entries"),
            "dlm_grants": total(["dlm"], "grants"),
            "dlm_contentions": total(["dlm"], "contentions"),
            "wal_appends": total(datalets, "wal_appends"),
            "wal_syncs": total(datalets, "wal_syncs"),
            "lsm_flushes": sum(e.stats().get("flushes", 0.0) for e in engines),
            "lsm_compactions": sum(e.stats().get("compactions", 0.0) for e in engines),
        }
        for host, seconds in busy.items():
            out[f"busy:{host}"] = seconds
        return out


def median_setup(wl: SimWorkload, seed: int, sim_window: float, clock: RunClock,
                 builds: int = spec.SETUP_BUILDS) -> Tuple[Rig, float, List[float]]:
    """Set up ``builds`` times from scratch; keep the last rig."""
    times: List[float] = []
    rig: Optional[Rig] = None
    for _ in range(builds):
        rig = None
        gc.collect()
        t0 = clock()
        rig = Rig(wl, seed, sim_window)
        times.append(clock() - t0)
    assert rig is not None
    return rig, statistics.median(times), times


# ---------------------------------------------------------------------------
# the measured window
# ---------------------------------------------------------------------------
def measure_window(rig: Rig, sim_window: float, clock: RunClock,
                   slices: int = spec.SLICES) -> dict:
    """Advance the cluster by ``sim_window`` simulated seconds, timing
    each of ``slices`` equal parts on ``clock``."""
    sim, driver = rig.sim, rig.driver
    driver.read_latencies, driver.write_latencies = [], []
    driver.measuring = True
    start_sim = sim.now
    done0, failed0 = driver.completed, driver.failed
    slice_ops: List[int] = []
    slice_wall: List[float] = []
    gc.collect()
    stolen0, wall0 = clock.stolen(), time.perf_counter()
    for i in range(slices):
        before = driver.completed
        t0 = clock()
        sim.run_until(start_sim + sim_window * (i + 1) / slices)
        slice_wall.append(clock() - t0)
        slice_ops.append(driver.completed - before)
    stolen, elapsed = clock.stolen() - stolen0, time.perf_counter() - wall0
    driver.measuring = False
    ops = driver.completed - done0
    failed = driver.failed - failed0
    reads, writes = sorted(driver.read_latencies), sorted(driver.write_latencies)
    everything = sorted(reads + writes)
    rate, rate_quartiles = slice_rate(slice_ops, slice_wall)
    return {
        "ops": ops,
        "failed": failed,
        "attempted": ops + failed,
        "sim_window_s": sim_window,
        "wall_s": sum(slice_wall),
        "elapsed_s": elapsed,
        "stolen_s": stolen,
        "wall_ops_per_s": rate,
        "wall_ops_per_s_total": ops / sum(slice_wall),
        "slice_ops": slice_ops,
        "slice_ops_per_wall_s": rate_quartiles,
        # flat-timeline check: session counts are sized so this stays <= 1.3
        "timeline_max_over_min": max(slice_ops) / max(1, min(slice_ops)),
        "service_qps": ops / sim_window,
        "read_samples": len(reads),
        "write_samples": len(writes),
        "service_read_p50_ms": percentile(reads, 0.50) * 1e3,
        "service_write_p50_ms": percentile(writes, 0.50) * 1e3,
        "service_p99_ms": percentile(everything, 0.99) * 1e3,
    }


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0],
                "min": values[0], "max": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "min": min(values), "max": max(values)}


def slice_rate(slice_ops: List[int], slice_wall: List[float]) -> Tuple[float, Dict[str, float]]:
    """The wall rate a run reports - the upper quartile of its slices -
    and all the quartiles.

    Noise on a shared box is one-sided - a slice never runs faster than
    the code allows, only slower when the host takes the core away - so
    the upper quartile is the steadiest estimate of what the code costs.
    Total/total and every quartile go to the result file beside it."""
    q = quartiles([o / w for o, w in zip(slice_ops, slice_wall)])
    return q["q3"], q


def percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


# ---------------------------------------------------------------------------
# output verification
# ---------------------------------------------------------------------------
def verify(rig: Rig) -> List[str]:
    """Check the store's outputs; returns a list of failures (empty =
    correct).  Stops the sessions and drains what is in flight first."""
    wl, sim, driver, dep = rig.wl, rig.sim, rig.driver, rig.dep
    problems: List[str] = []
    driver.running = False
    sim.run_future(sim.gather(rig.session_futures), timeout=60.0)
    strong = wl.consistency == "strong"
    if not strong:
        # quiesce: let replication drain, then every replica must agree
        for _ in range(10):
            sim.run_until(sim.now + 1.0)
            disagreements = _replica_disagreements(dep)
            if not disagreements:
                break
        problems += disagreements

    reader = rig.clients[0]
    keys = sorted(driver.candidates)[: spec.VERIFY_KEYS]
    if len(keys) < min(spec.VERIFY_KEYS, len(driver.candidates)):
        problems.append("too few written keys to read back")
    lookup = rig.shard_lookup()
    for key in keys:
        try:
            got = sim.run_future(reader.get(key))
        except BespoError as e:
            problems.append(f"read-back of {key!r} failed: {e}")
            continue
        if strong:
            # linearizable: the final value is a put no later put followed
            if got not in {v for _, v in driver.candidates[key]}:
                problems.append(f"{key!r}: read {got!r}, not an acked final value")
        else:
            head = dep.map.shard(lookup(key)).ordered()[0]
            stored = dep.cluster.actor(head.datalet).engine.get(key)
            if got != stored or got not in driver.written[key]:
                problems.append(f"{key!r}: read {got!r}, replicas hold {stored!r}")
    if wl.durable:
        problems += _wal_replay_mismatch(rig)
    return problems


def _replica_disagreements(dep: Deployment) -> List[str]:
    out = []
    for sid in dep.map.shard_ids():
        snaps = [dep.cluster.actor(r.datalet).engine.snapshot()
                 for r in dep.map.shard(sid).ordered()]
        if any(s != snaps[0] for s in snaps[1:]):
            out.append(f"shard {sid}: replicas disagree after quiescing")
    return out


def _wal_replay_mismatch(rig: Rig) -> List[str]:
    """Replay one datalet's WAL into a fresh engine holding the same
    preload; the result must equal the live engine."""
    dep, wl = rig.dep, rig.wl
    replica = dep.map.shard(dep.map.shard_ids()[0]).ordered()[0]
    live = dep.cluster.actor(replica.datalet).engine
    lookup = rig.shard_lookup()
    fresh = make_engine(wl.engine, **wl.engine_kwargs.get(wl.engine, {}))
    for key, value in rig.items.items():
        if lookup(key) == dep.map.shard_ids()[0]:
            fresh.put(key, value)
    log = WriteAheadLog(dep.cluster.durable_store(replica.host), replica.datalet)
    replayed = log.replay(fresh)
    if replayed.applied_seq == 0:
        return [f"WAL of {replica.datalet} is empty after a write workload"]
    if fresh.snapshot() != live.snapshot():
        return [f"WAL replay of {replica.datalet} differs from the live engine"]
    return []
