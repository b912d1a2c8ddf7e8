"""The real-socket workload: ``bespokv serve`` on loopback.

The server is a child process pinned to one core; the generator is this
process, one thread and one ``TcpKVClient`` connection, pinned to
another.  Phase 1 is a closed loop (next op when the previous one
completes).  Phase 2 is an open loop at fixed offered rates: requests
fall due on a seeded Poisson schedule regardless of how the server is
doing, each is timed from its *due* time — so a stall is charged to
every request that had to wait behind it — and how late the generator
sent is reported next to the latencies.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import statistics
import subprocess
import sys
import time
from typing import Callable, List, Optional

from repro.errors import KeyNotFound
from repro.net.tcp import TcpKVClient

from perfbench import ROOT, SRC, spec
from perfbench.simload import percentile, slice_rate
from perfbench.spec import TcpWorkload

#: open-loop latencies are also cut into slices of this many requests
SLICE_SAMPLES = 500

_LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
def make_inputs(wl: TcpWorkload, seed: int):
    rng = random.Random(seed * 104729 + 7)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
    keys = [f"user{i:08d}" for i in range(wl.keys)]
    values = ["".join(rng.choices(alphabet, k=wl.value_size)) for _ in range(64)]
    preload = {k: values[rng.randrange(64)] for k in keys}
    return rng, keys, values, preload


def op_stream(wl: TcpWorkload, rng: random.Random, keys, values, count: int):
    """``count`` ops as ("get", key) / ("put", key, value)."""
    out = []
    for _ in range(count):
        key = keys[rng.randrange(len(keys))]
        if rng.random() < wl.get_frac:
            out.append(("get", key))
        else:
            out.append(("put", key, values[rng.randrange(len(values))]))
    return out


def stream_digest(wl: TcpWorkload, seed: int, ops: int = 100) -> str:
    """Digest of the first generated ops (see ``simload.stream_digest``)."""
    rng, keys, values, _ = make_inputs(wl, seed)
    return hashlib.sha256(repr(op_stream(wl, rng, keys, values, ops)).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# the server child and CPU placement
# ---------------------------------------------------------------------------
# The loop ends by itself if this process dies without reaping it.
_SPIN = ("import os\n"
         "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
         "parent = os.getppid()\n"
         "while os.getppid() == parent:\n"
         "    for _ in range(200000):\n"
         "        pass\n")


class Cores:
    """Where the server and the generator run, kept awake.

    A request/response ping-pong idles each side half the time.  In a
    VM an idle vCPU halts, and waking it costs a trip through the
    hypervisor whose length depends on the host's mood: the closed loop
    on this 2-vCPU sandbox read 9.6-11.8 k ops/s from run to run, pinned.
    One busy loop per core at ``SCHED_IDLE`` priority - it runs only when
    nothing else wants the core and yields it at once - keeps the vCPUs
    from halting, and the same loop reads 12.6-12.9 k ops/s."""

    def __init__(self) -> None:
        self.server_cpu: Optional[int] = None
        self.generator_cpu: Optional[int] = None
        self._spinners: List[subprocess.Popen] = []
        allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        if len(allowed) < 2:
            return  # nothing to pin to; the run still measures, just noisier
        self.server_cpu, self.generator_cpu = allowed[0], allowed[-1]
        os.sched_setaffinity(0, {self.generator_cpu})
        if hasattr(os, "SCHED_IDLE"):
            for cpu in (self.server_cpu, self.generator_cpu):
                proc = subprocess.Popen([sys.executable, "-c", _SPIN])
                os.sched_setaffinity(proc.pid, {cpu})
                self._spinners.append(proc)

    def close(self) -> None:
        for proc in self._spinners:
            proc.kill()
            proc.wait()
        self._spinners.clear()

    def __enter__(self) -> "Cores":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Server:
    """``python -m repro.cli serve`` as a child process."""

    def __init__(self, wl: TcpWorkload, protocol: str, cpu: Optional[int]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", "--engine", wl.engine,
             "--protocol", protocol, "--port", "0",
             "--serve-seconds", "600"],      # a cap, should this process die first
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
            cwd=str(ROOT),
        )
        try:
            if cpu is not None:
                os.sched_setaffinity(self.proc.pid, {cpu})
            line = self.proc.stdout.readline()
            match = _LISTENING.search(line)
            if match is None:
                raise RuntimeError(f"server did not start: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
        except BaseException:
            self.stop()
            raise

    def cpu_seconds(self) -> float:
        """utime + stime of the live child, from /proc."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Rig:
    """Server started, connected, preloaded and warmed up."""

    def __init__(self, wl: TcpWorkload, seed: int, cores: Cores,
                 protocol: Optional[str] = None) -> None:
        self.wl = wl
        self.rng, self.keys, self.values, self.preload = make_inputs(wl, seed)
        self.server = Server(wl, protocol or wl.protocol, cores.server_cpu)
        try:
            self.client = TcpKVClient(self.server.host, self.server.port,
                                      protocol=protocol or wl.protocol)
            for key, value in self.preload.items():
                self.client.put(key, value)
            #: what the store must hold, kept in step with every SET sent
            self.expected = dict(self.preload)
            self.run_ops(op_stream(wl, self.rng, self.keys, self.values, wl.warmup_ops))
        except BaseException:
            self.close()
            raise

    def ops(self, count: int):
        return op_stream(self.wl, self.rng, self.keys, self.values, count)

    def run_ops(self, ops) -> None:
        for op in ops:
            self.issue(op)

    def issue(self, op) -> None:
        if op[0] == "get":
            self.client.get(op[1])
        else:
            self.client.put(op[1], op[2])
            self.expected[op[1]] = op[2]

    def close(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        self.server.stop()


def median_setup(wl: TcpWorkload, seed: int, cores: Cores,
                 builds: int = spec.SETUP_BUILDS):
    times: List[float] = []
    rig: Optional[Rig] = None
    for _ in range(builds):
        if rig is not None:
            rig.close()
        t0 = time.perf_counter()
        rig = Rig(wl, seed, cores)
        times.append(time.perf_counter() - t0)
    assert rig is not None
    return rig, statistics.median(times), times


# ---------------------------------------------------------------------------
# phase 1: closed loop
# ---------------------------------------------------------------------------
def closed_loop(rig: Rig, seconds: float, slices: int = spec.SLICES) -> dict:
    clock = time.perf_counter
    batch = rig.ops(4096)
    issue = rig.issue
    lat: List[float] = []
    slice_ops: List[int] = []
    slice_wall: List[float] = []
    failed = 0
    cpu0 = time.process_time()
    i = 0
    for _ in range(slices):
        start = clock()
        deadline = start + seconds / slices
        n = 0
        t0 = start
        while t0 < deadline:
            try:
                issue(batch[i & 4095])
            except KeyNotFound:
                failed += 1
            t1 = clock()
            lat.append(t1 - t0)
            t0 = t1
            i += 1
            n += 1
        slice_ops.append(n)
        slice_wall.append(t0 - start)
    ops = sum(slice_ops)
    lat.sort()
    rate, rate_quartiles = slice_rate(slice_ops, slice_wall)
    return {
        "ops": ops, "failed": failed, "wall_s": sum(slice_wall),
        "wall_ops_per_s": rate,
        "wall_ops_per_s_total": ops / sum(slice_wall),
        "slice_ops_per_wall_s": rate_quartiles,
        "closed_p50_us": percentile(lat, 0.50) * 1e6,
        "client_cpu_us_per_op": (time.process_time() - cpu0) / ops * 1e6,
    }


# ---------------------------------------------------------------------------
# phase 2: open loop
# ---------------------------------------------------------------------------
def open_loop(issue: Callable, ops: list, rate: float, rng: random.Random) -> dict:
    """Send ``ops`` on a Poisson schedule of ``rate`` per second.

    One connection serves one request at a time, so a request that falls
    due while its predecessor is still in flight waits; its latency runs
    from the due time, not from when it was finally sent."""
    clock = time.perf_counter
    gaps = [rng.expovariate(rate) for _ in ops]
    stretch = len(ops) / rate / sum(gaps)       # the rung lasts exactly len(ops)/rate
    gaps = [g * stretch for g in gaps]
    latency: List[float] = []
    reads: List[float] = []
    writes: List[float] = []
    lag: List[float] = []
    failed = 0
    start = clock()
    due = start
    for op, gap in zip(ops, gaps):
        due += gap
        now = clock()
        while now < due:      # spin: the generator owns its core
            now = clock()
        lag.append(now - due)
        try:
            issue(op)
        except KeyNotFound:
            failed += 1
        took = clock() - due
        latency.append(took)
        (reads if op[0] == "get" else writes).append(took)
    elapsed = clock() - start
    half = len(lag) // 2
    first, second = sorted(lag[:half]), sorted(lag[half:])
    latency_sorted = sorted(latency)
    # A host stall (the sandbox has 2 vCPUs on a shared host) lands in the
    # pooled tail of whichever rung it hits.  Such noise only ever adds
    # latency, so the tail reported end to end is the lower quartile of
    # the p99s of slices of the rung; the pooled p99 is kept beside it.
    per = SLICE_SAMPLES
    slice_p99 = [percentile(sorted(latency[i:i + per]), 0.99)
                 for i in range(0, len(latency) - per + 1, per)]
    quiet_p99 = (statistics.quantiles(slice_p99, n=4)[0] if len(slice_p99) > 1
                 else percentile(latency_sorted, 0.99))
    return {
        "offered_per_s": rate, "sent": len(ops), "failed": failed,
        "achieved_per_s": len(ops) / elapsed,
        "samples": len(latency),
        "p50_us": percentile(latency_sorted, 0.50) * 1e6,
        "read_p50_us": percentile(sorted(reads), 0.50) * 1e6,
        "write_p50_us": percentile(sorted(writes), 0.50) * 1e6,
        "p99_us": percentile(latency_sorted, 0.99) * 1e6,
        "p99_us_slice_q1": quiet_p99 * 1e6,
        "send_lag_p99_us": percentile(sorted(lag), 0.99) * 1e6,
        # a backlog shows as send lag that keeps growing through the rung
        "send_lag_growing": (percentile(second, 0.5) > 2 * percentile(first, 0.5) + 200e-6),
    }


def max_ok_rate(rungs: List[dict], limit_us: float) -> float:
    """Highest offered rate whose p99 meets the limit with no growing
    backlog; rungs above a failing rung do not count."""
    best = 0.0
    for rung in sorted(rungs, key=lambda r: r["offered_per_s"]):
        if rung["p99_us"] > limit_us or rung["send_lag_growing"] or rung["failed"]:
            break
        best = rung["offered_per_s"]
    return best


# ---------------------------------------------------------------------------
# output verification
# ---------------------------------------------------------------------------
def verify(rig: Rig) -> List[str]:
    problems: List[str] = []
    client = rig.client
    probe_key, probe_val = "perfbench:probe", "v" * rig.wl.value_size
    client.put(probe_key, probe_val)
    if client.get(probe_key) != probe_val:
        problems.append("GET after SET returned another value")
    client.delete(probe_key)
    if client.size() != len(rig.expected):
        problems.append(f"DBSIZE {client.size()} != {len(rig.expected)} keys written")
    for key in sorted(rig.expected)[: spec.VERIFY_KEYS]:
        if client.get(key) != rig.expected[key]:
            problems.append(f"{key!r}: server holds another value than the last SET")
    return problems
