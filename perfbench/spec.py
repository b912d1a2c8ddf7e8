"""Pinned constants: workloads, cost model, metric names.

Everything a later PR could otherwise move lives here, so that one copy
of this package measures a parent commit and its change identically.
``BENCHMARK.json`` is generated from these tables (``python3 -m
perfbench manifest``) and ``test_perfbench.py`` keeps the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

# -- the modelled cluster (the figure suite's shape, pinned here) --------
COST_SCALE = 600.0          # CostModel(cpu_scale=...); NetworkParams stay default
SHARDS = 4
REPLICAS = 3
STANDBYS = 1
CLIENTS = 12                # KVClient objects; sessions are spread round-robin

# -- how one run is cut up ----------------------------------------------
RUN_SECONDS = 7             # BENCHMARK.json run_seconds
WARMUP_FRAC = 0.05          # warm-up, as a share of the measured sim window
SLICES = 20                 # the window is timed in this many equal slices
SETUP_BUILDS = 5            # fresh set-ups per run; setup_s is their median
TRACE_WINDOW_FRAC = 0.2     # traced pass measures this share of the window
KEEP_OP_TREES = 200         # full span trees are kept for this many client ops
VERIFY_KEYS = 200           # written keys read back through the client

SCAN_END = "￿"
SCAN_LENGTH = 50


@dataclass(frozen=True)
class SimWorkload:
    """One simulated workload.  ``sim_s_per_run_s`` is the calibration
    that turns ``--seconds`` into a fixed amount of simulated time: at
    the commit that defined the benchmark, one wall second of this box
    advanced the modelled cluster by about that many simulated seconds.
    The *work* is fixed, so a faster commit finishes sooner."""

    name: str
    why: str
    topology: str
    consistency: str
    engine: str = "ht"
    partitioner: str = "hash"
    mix: Tuple[float, float, float] = (0.5, 0.5, 0.0)   # get, put, scan
    distribution: str = "zipfian"
    keys: int = 2000
    value_size: int = 32
    sessions: int = 144
    sim_s_per_run_s: float = 10.0
    engine_kwargs: Dict[str, dict] = field(default_factory=dict)
    durable: bool = False
    wal_sync_every: int = 1


@dataclass(frozen=True)
class TcpWorkload:
    name: str
    why: str
    engine: str = "ht"
    protocol: str = "resp"
    keys: int = 2000
    value_size: int = 32
    get_frac: float = 0.95
    #: share of ``--seconds`` spent in the closed loop and in each rung;
    #: the rung that is reported end to end gets the longest
    closed_frac: float = 0.25
    rungs: Tuple[int, ...] = (2500, 5000, 10000)     # offered ops/s
    rung_fracs: Tuple[float, ...] = (0.1, 0.45, 0.1)
    report_rung: int = 5000                          # service_p50/p99 come from here
    #: calibrated once, at the commit that defined the benchmark: the
    #: 5000 rung passes it, and the 10000 rung fails it, by more than 2x
    p99_limit_us: float = 2000.0
    warmup_ops: int = 2000


SIM_WORKLOADS: List[SimWorkload] = [
    SimWorkload(
        "ms_sc_write",
        "MS+SC chain replication, 50/50 zipfian: core.ms_sc, actor fabric and sim.kernel "
        "do nearly all the work, the engine none - kernel/fabric gains must show here",
        "ms", "strong", sessions=48, sim_s_per_run_s=24.0,
    ),
    SimWorkload(
        "aa_ec_read",
        "AA+EC 95/5 zipfian: reads served by any active, 5% reach the shared log - "
        "workloads/client/hashing dominate; a replication-path gain should not move it",
        "aa", "eventual", mix=(0.95, 0.05, 0.0), sim_s_per_run_s=5.5,
    ),
    SimWorkload(
        "aa_sc_lock",
        "AA+SC 50/50 zipfian, 12 sessions: the only workload with the dlm lease lock on "
        "every write; guards the dirty-gate/Pump refactors",
        "aa", "strong", sessions=12, sim_s_per_run_s=37.0,
    ),
    SimWorkload(
        "ms_ec_durable_lsm",
        "MS+EC on lsm, durable WAL (group commit 8), uniform over 20000 keys x 256 B: working "
        "set >> memtable, so flush/compaction/WAL run for cycles - engine/WAL gains show here only",
        "ms", "eventual", engine="lsm", distribution="uniform", keys=20000,
        value_size=256, sessions=24, sim_s_per_run_s=20.0,
        engine_kwargs={"lsm": {"memtable_limit": 512}}, durable=True, wal_sync_every=8,
    ),
    SimWorkload(
        "mt_scan",
        "MS+EC on the B+-tree, range partitioner, 95% 50-item scans / 5% put, 24 sessions: "
        "scatter-gather and list payloads; a point-op gain that costs scans shows here",
        "ms", "eventual", engine="mt", partitioner="range", mix=(0.0, 0.05, 0.95),
        distribution="uniform", sessions=24, sim_s_per_run_s=45.0,
    ),
]

TCP_WORKLOAD = TcpWorkload(
    "tcp_resp_loopback",
    "bespokv serve (ht, RESP) as a pinned child process, one pinned TcpKVClient, 95/5 GET/SET: "
    "the only real-socket path; bypasses the simulator, so only a codec/server gain moves it",
)

WORKLOADS: Dict[str, object] = {w.name: w for w in SIM_WORKLOADS}
WORKLOADS[TCP_WORKLOAD.name] = TCP_WORKLOAD

# -- metrics -------------------------------------------------------------
# (name, unit, better, bound).  Every workload reports every one of them.
# "service" is the clock the store's user lives on: simulated time for
# the five modelled-cluster workloads, wall time for the socket server.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_ops_per_s", "1/s", "higher", 0.25),
    ("service_qps", "1/s", "higher", 0.04),
    ("service_read_p50_ms", "ms", "lower", 0.20),
    ("service_write_p50_ms", "ms", "lower", 0.20),
    ("service_p99_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

TRACE_LAYERS = ["workloads", "client", "kernel", "network", "simnet", "actor",
                "resources", "core", "dlm", "sharedlog", "coordinator", "datalet", "wal"]
LADDER_ENGINES = ["ht", "lsm", "mt", "log"]
COMBOS = {"ms_sc": ("ms", "strong"), "ms_ec": ("ms", "eventual"),
          "aa_sc": ("aa", "strong"), "aa_ec": ("aa", "eventual")}


def _per_layer() -> List[Tuple[str, str, str]]:
    out: List[Tuple[str, str, str]] = []
    # traced wall share, one per layer (0 = the layer is not on the path)
    out += [(f"{layer}.self_frac", "frac", "lower") for layer in TRACE_LAYERS]
    out += [("trace.unattributed_frac", "frac", "lower"),
            ("trace.overhead_frac", "frac", "lower")]
    # exact counts: repeat bit-for-bit per seed (events_per_wall_s is the
    # one wall-clock rate among them and is deliberately not end-to-end)
    out += [
        ("kernel.events_per_op", "count", "lower"),
        ("kernel.events_per_wall_s", "1/s", "higher"),
        ("network.msgs_per_op", "count", "lower"),
        ("network.bytes_per_op", "B", "lower"),
        ("client.retries_per_op", "count", "lower"),
        ("client.timeouts_per_op", "count", "lower"),
        ("client.failed_frac", "frac", "lower"),
        ("sharedlog.entries_per_append", "count", "higher"),
        ("dlm.contention_frac", "frac", "lower"),
        ("wal.fsyncs_per_op", "count", "lower"),
        ("wal.bytes_per_user_byte", "B/B", "lower"),
        ("datalet.lsm.flushes", "count", "lower"),
        ("datalet.lsm.compactions", "count", "lower"),
        ("resources.cpu_util_mean", "frac", "lower"),
        ("resources.cpu_util_max", "frac", "lower"),
    ]
    # ladder: wall time per call in isolation, fed the workload's own stream
    out += [
        ("workloads.next_op_ns", "ns", "lower"),
        ("workloads.build_us", "us", "lower"),
        ("hashing.stable_hash_ns", "ns", "lower"),
        ("hashing.ring_lookup_ns", "ns", "lower"),
        ("client.shard_for_ns", "ns", "lower"),
        ("kernel.schedule_pop_ns", "ns", "lower"),
        ("kernel.process_step_ns", "ns", "lower"),
        ("network.send_ns", "ns", "lower"),
        ("simnet.route_free_ns", "ns", "lower"),
        ("simnet.route_cpu_ns", "ns", "lower"),
        ("message.size_point_ns", "ns", "lower"),
        ("message.size_scan50_ns", "ns", "lower"),
        ("actor.rpc_roundtrip_ns", "ns", "lower"),
        ("resources.submit_ns", "ns", "lower"),
    ]
    out += [(f"datalet.{e}.put_ns", "ns", "lower") for e in LADDER_ENGINES]
    out += [(f"datalet.{e}.get_ns", "ns", "lower") for e in LADDER_ENGINES]
    out += [
        ("datalet.mt.scan50_ns", "ns", "lower"),
        ("datalet.lsm.scan50_ns", "ns", "lower"),
        ("wal.append_ns", "ns", "lower"),
        ("wal.sync_ns", "ns", "lower"),
        ("wal.replay_us_per_record", "us", "lower"),
        ("resp.encode_ns", "ns", "lower"),
        ("resp.parse_ns", "ns", "lower"),
        ("protocol.encode_ns", "ns", "lower"),
        ("protocol.decode_ns", "ns", "lower"),
    ]
    out += [(f"core.{c}.op_us", "us", "lower") for c in COMBOS]
    out += [(f"core.{c}.events_per_put", "count", "lower") for c in COMBOS]
    # real-socket path (0 on the simulated workloads)
    out += [
        ("tcp.server_cpu_us_per_op", "us", "lower"),
        ("tcp.client_cpu_us_per_op", "us", "lower"),
        ("tcp.closed_p50_us", "us", "lower"),
        ("tcp.send_lag_p99_us", "us", "lower"),
    ]
    out += [(f"tcp.rung_p99_us.{r}", "us", "lower") for r in TCP_WORKLOAD.rungs]
    out += [
        ("tcp.max_ok_rate", "1/s", "higher"),
        ("tcp.binary_ops_per_s", "1/s", "higher"),
    ]
    # the repo's own span plane (0 on the socket workload)
    out += [
        ("obs.on_overhead_frac", "frac", "lower"),
        ("obs.sim_net_ms_per_op", "ms", "lower"),
        ("obs.sim_cpu_ms_per_op", "ms", "lower"),
        ("obs.sim_rpc_ms_per_op", "ms", "lower"),
    ]
    return out


PER_LAYER: List[Tuple[str, str, str]] = _per_layer()

#: per-layer metrics that are counts made by the program: identical for
#: the same seed on the same code, so ``compare`` diffs them for equality.
EXACT_COUNTS = [
    "kernel.events_per_op", "network.msgs_per_op", "network.bytes_per_op",
    "client.retries_per_op", "client.timeouts_per_op", "client.failed_frac",
    "sharedlog.entries_per_append", "dlm.contention_frac", "wal.fsyncs_per_op",
    "wal.bytes_per_user_byte", "datalet.lsm.flushes", "datalet.lsm.compactions",
    "resources.cpu_util_mean", "resources.cpu_util_max",
] + [f"core.{c}.events_per_put" for c in COMBOS]

#: end-to-end metrics on the simulated clock: bit-identical per seed on
#: the five simulated workloads (on the socket workload they are wall).
SIM_CLOCK = ["service_qps", "service_read_p50_ms", "service_write_p50_ms", "service_p99_ms"]


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "perfbench", "run"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
