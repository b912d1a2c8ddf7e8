"""Closed-loop load generation and measurement.

Mirrors the paper's methodology: a separate (cost-free) client cluster
drives closed-loop sessions against the store, throughput is reported
as completed queries per second over a measurement window after a
warmup, and a per-interval timeline is kept for the failover/transition
figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.client.kv import KVClient
from repro.cluster.routing import RingRouting
from repro.errors import BespoError, KeyNotFound
from repro.harness.deploy import Deployment
from repro.workloads.ycsb import Workload

__all__ = ["RunResult", "LoadGenerator", "preload"]


@dataclass
class RunResult:
    """Aggregate measurement of one run."""

    ops: int
    errors: int
    duration: float
    qps: float
    mean_latency_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    #: (window_start_time, qps_in_window) pairs covering the whole run
    #: including warmup — timeline figures need the dip visible.
    timeline: List[Tuple[float, float]] = field(default_factory=list)
    op_counts: Dict[str, int] = field(default_factory=dict)

    def __str__(self) -> str:
        return (
            f"{self.qps:,.0f} QPS  mean={self.mean_latency_ms:.2f}ms "
            f"p99={self.p99_ms:.2f}ms  ops={self.ops:,}  errs={self.errors}"
        )


def preload(dep: Deployment, items: Dict[str, str]) -> None:
    """Bulk-load data into every replica's engine directly.

    The paper's load phase (inserting 10M tuples) is uninteresting to
    simulate event-by-event; what matters is that measurement starts
    from a populated, fully replicated store.  Keys are routed by the
    client library's own :class:`RingRouting`, fed what the coordinator
    tells clients, so reads find their keys.
    """
    coord = dep.coordinator
    routing = RingRouting()
    routing.install(coord.view.ring_info(), coord.partitioner)
    by_shard: Dict[str, List[Tuple[str, str]]] = {sid: [] for sid in dep.map.shard_ids()}
    for k, v in items.items():
        by_shard[routing.lookup(k)].append((k, v))
    for sid, pairs in by_shard.items():
        for replica in dep.map.shard(sid).ordered():
            engine = dep.cluster.actor(replica.datalet).engine
            for k, v in pairs:
                engine.put(k, v)


class LoadGenerator:
    """Drives N closed-loop client sessions and measures the result."""

    def __init__(
        self,
        dep: Deployment,
        workload_factory: Callable[[int], Workload],
        clients: int = 16,
        warmup: float = 0.5,
        duration: float = 2.0,
        timeline_interval: float = 0.0,
        sessions_per_client: int = 4,
        client_factory: Optional[Callable[[str], object]] = None,
    ):
        """``clients`` KVClient instances (each with its own port/host),
        each running ``sessions_per_client`` concurrent closed-loop
        sessions — matching the paper's many-threads-per-bench-process
        setup without paying per-session actor overhead.

        ``client_factory`` overrides how clients are built (baseline
        systems supply :class:`~repro.baselines.BaselineClient` here);
        it must return an object with connect/put/get/delete/scan."""
        self.dep = dep
        self.client_factory = client_factory
        self.workload_factory = workload_factory
        self.n_clients = clients
        self.warmup = warmup
        self.duration = duration
        self.timeline_interval = timeline_interval
        self.sessions_per_client = sessions_per_client
        self._running = True
        self._ops = 0
        self._errors = 0
        self._latencies: List[float] = []
        self._timeline_counts: Dict[int, int] = {}
        self._op_counts: Dict[str, int] = {"get": 0, "put": 0, "del": 0, "scan": 0,
                                           "rmw": 0}

    # ------------------------------------------------------------------
    def _session(self, client: KVClient, wl: Workload):
        sim = self.dep.sim
        warmup_end = self.warmup
        while self._running:
            op = wl.next_op()
            t0 = sim.now
            try:
                if op[0] == "get":
                    yield client.get(op[1])
                elif op[0] == "put":
                    yield client.put(op[1], op[2])
                elif op[0] == "scan":
                    yield client.scan(op[1], "￿", limit=op[2])
                elif op[0] == "rmw":
                    # YCSB-F read-modify-write: two store round trips
                    try:
                        yield client.get(op[1])
                    except KeyNotFound:
                        pass
                    yield client.put(op[1], op[2])
                else:
                    yield client.delete(op[1])
            except KeyNotFound:
                pass  # reads/deletes racing inserts are successful ops
            except BespoError:
                self._errors += 1
                continue
            t1 = sim.now
            self._op_counts[op[0] if op[0] != "delete" else "del"] += 1
            if self.timeline_interval:
                bucket = int(t1 / self.timeline_interval)
                self._timeline_counts[bucket] = self._timeline_counts.get(bucket, 0) + 1
            if t1 >= warmup_end:
                self._ops += 1
                self._latencies.append(t1 - t0)

    # ------------------------------------------------------------------
    def run(self, extra_runtime: float = 0.0) -> RunResult:
        """Execute the experiment and return aggregate results.

        ``extra_runtime`` extends the simulation past the measurement
        end (failover experiments want the timeline to keep going)."""
        sim = self.dep.sim
        for i in range(self.n_clients):
            if self.client_factory is not None:
                client = self.client_factory(f"loadgen{i}")
            else:
                client = self.dep.client(f"loadgen{i}")
            sim.run_future(client.connect())
            for s in range(self.sessions_per_client):
                wl = self.workload_factory(i * self.sessions_per_client + s)
                sim.spawn(self._session(client, wl))
        end = self.warmup + self.duration
        sim.run_until(end + extra_runtime)
        self._running = False
        lat = np.asarray(self._latencies) if self._latencies else np.asarray([0.0])
        timeline = []
        if self.timeline_interval:
            last = int((end + extra_runtime) / self.timeline_interval)
            for bucket in range(0, last + 1):
                count = self._timeline_counts.get(bucket, 0)
                timeline.append(
                    (bucket * self.timeline_interval, count / self.timeline_interval)
                )
        return RunResult(
            ops=self._ops,
            errors=self._errors,
            duration=self.duration,
            qps=self._ops / self.duration if self.duration > 0 else 0.0,
            mean_latency_ms=float(lat.mean() * 1e3),
            p50_ms=float(np.percentile(lat, 50) * 1e3),
            p95_ms=float(np.percentile(lat, 95) * 1e3),
            p99_ms=float(np.percentile(lat, 99) * 1e3),
            timeline=timeline,
            op_counts=dict(self._op_counts),
        )
