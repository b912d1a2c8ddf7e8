"""Tests for workload generators."""

import hashlib
import random

import pytest

from repro.errors import ConfigError
from repro.workloads import (
    ANALYTICS_MIX,
    DLIngestWorkload,
    HPCPhaseTrace,
    IO_FORWARDING_MIX,
    JOB_LAUNCH_MIX,
    KeySpace,
    MonitoringTrace,
    OpMix,
    UniformKeys,
    Workload,
    YCSB_A,
    YCSB_B,
    YCSB_E,
    ZipfKeys,
    hpc_workload,
    make_workload,
)


def test_keyspace_formatting_and_bounds():
    ks = KeySpace(100)
    assert ks.key(0) == "user00000000"
    assert ks.key(99) == "user00000099"
    with pytest.raises(ConfigError):
        ks.key(100)
    with pytest.raises(ConfigError):
        KeySpace(0)


def test_uniform_covers_keyspace():
    ks = KeySpace(50)
    gen = UniformKeys(ks, random.Random(1))
    seen = {gen.next_index() for _ in range(2000)}
    assert len(seen) == 50


def test_zipf_is_skewed():
    ks = KeySpace(10_000)
    z = ZipfKeys(ks, theta=0.99, rng=random.Random(2))
    # YCSB-style zipf(0.99): top 10 ranks attract a large share
    assert z.hot_fraction(top=10, samples=5000) > 0.25
    # but the tail is still reachable
    seen = {z.next_index() for _ in range(5000)}
    assert len(seen) > 500


def test_zipf_scramble_spreads_hot_keys():
    ks = KeySpace(1000)
    z = ZipfKeys(ks, rng=random.Random(3))
    hot = [int(z._perm[i]) for i in range(10)]
    assert hot != sorted(hot)  # not the first 10 indices


def test_zipf_reproducible():
    ks = KeySpace(100)
    a = ZipfKeys(ks, rng=random.Random(7))
    b = ZipfKeys(ks, rng=random.Random(7))
    assert [a.next_key() for _ in range(50)] == [b.next_key() for _ in range(50)]


def test_zipf_invalid_theta():
    with pytest.raises(ConfigError):
        ZipfKeys(KeySpace(10), theta=0.0)


def test_opmix_validation():
    with pytest.raises(ConfigError):
        OpMix(get=0.5, put=0.4)
    with pytest.raises(ConfigError):
        OpMix(get=1.5, put=-0.5)


def test_ycsb_mix_ratios_realized():
    wl = make_workload(YCSB_B, keys=1000, seed=5)
    for _ in range(10_000):
        wl.next_op()
    ratio = wl.counts["get"] / 10_000
    assert 0.93 < ratio < 0.97


def test_ycsb_a_is_half_and_half():
    wl = make_workload(YCSB_A, keys=1000, seed=5)
    for _ in range(10_000):
        wl.next_op()
    assert 0.47 < wl.counts["get"] / 10_000 < 0.53


def test_ycsb_e_scan_ops():
    wl = make_workload(YCSB_E, keys=1000, seed=5, scan_length=25)
    ops = [wl.next_op() for _ in range(1000)]
    scans = [op for op in ops if op[0] == "scan"]
    assert len(scans) > 900
    assert all(op[2] == 25 for op in scans)


def test_workload_value_size():
    wl = make_workload(YCSB_A, keys=10, value_size=64, seed=1)
    assert len(wl.value()) == 64


def test_preload_covers_every_key():
    wl = make_workload(YCSB_A, keys=37, seed=1)
    keys = [op[1] for op in wl.preload_ops()]
    assert len(keys) == 37 and len(set(keys)) == 37


def test_make_workload_distributions():
    assert make_workload(YCSB_A, distribution="uniform") is not None
    with pytest.raises(ConfigError):
        make_workload(YCSB_A, distribution="latest")


# ---------------------------------------------------------------------------
# HPC traces
# ---------------------------------------------------------------------------
def test_hpc_mixes_match_paper():
    assert IO_FORWARDING_MIX.get == pytest.approx(0.62)
    assert JOB_LAUNCH_MIX.get == pytest.approx(0.50)
    assert ANALYTICS_MIX.get == 1.0
    # I/O forwarding has 12% more reads than job launch (paper VIII-B)
    assert IO_FORWARDING_MIX.get - JOB_LAUNCH_MIX.get == pytest.approx(0.12)


def test_hpc_workload_factory():
    for name in ("job_launch", "io_forwarding", "monitoring", "analytics"):
        wl = hpc_workload(name, keys=100, seed=0)
        for _ in range(100):
            assert wl.next_op()[0] in ("get", "put", "scan", "del")
    with pytest.raises(ConfigError):
        hpc_workload("raytracing")


def test_phase_trace_overall_ratio_balanced():
    gets, puts = HPCPhaseTrace(jobs=4, ops_per_phase=200, seed=1).ratio()
    assert 0.45 < gets < 0.55
    assert gets + puts == pytest.approx(1.0)


def test_phase_trace_phases_differ():
    trace = HPCPhaseTrace(jobs=1, ops_per_phase=300, seed=2)
    ops = list(trace.ops())
    dispatch = ops[:300]
    collect = ops[600:900]
    get_rate = lambda chunk: sum(1 for o in chunk if o[0] == "get") / len(chunk)
    assert get_rate(dispatch) > 0.8
    assert get_rate(collect) < 0.2


def test_monitoring_trace_keys_are_timeseries():
    trace = MonitoringTrace(samples=100, seed=3)
    ops = list(trace.ops())
    assert all(op[0] == "put" for op in ops)
    comp, metric, idx = ops[0][1].split(".")
    assert comp in MonitoringTrace.COMPONENTS
    assert metric in MonitoringTrace.METRICS
    assert idx == "000000"


def test_monitoring_analytics_reads_written_keys():
    trace = MonitoringTrace(samples=50, seed=3)
    written = {op[1] for op in trace.ops()}
    reads = list(trace.analytics_ops(reads=200, seed=1))
    assert all(op[0] == "get" and op[1] in written for op in reads)


def test_monitoring_analytics_before_write_rejected():
    with pytest.raises(ConfigError):
        list(MonitoringTrace().analytics_ops(10))


# ---------------------------------------------------------------------------
# DL ingest
# ---------------------------------------------------------------------------
def test_dl_epoch_covers_dataset_shuffled():
    wl = DLIngestWorkload(images=100, batch=4, seed=4)
    load = list(wl.load_ops())
    assert len(load) == 25
    e1 = [op[1] for op in wl.epoch_ops()]
    e2 = [op[1] for op in wl.epoch_ops()]
    assert sorted(e1) == sorted(e2) == sorted(r for r in wl.records)
    assert e1 != e2  # reshuffled


def test_dl_record_payload_size():
    wl = DLIngestWorkload(images=8, batch=2, record_bytes=128)
    assert len(wl.record_value()) == 128
    with pytest.raises(ConfigError):
        DLIngestWorkload(images=0)


# The first 200 ops of four session streams, as digests of their reprs:
# key sharing and table sharing must not change a single draw.
_STREAM_PINS = {
    ("zipfian", False): ("2e3cebd25c4024cdb2309a550d7ee5c8",
                         ("scan", "user00000583", 50), ("get", "user00000569")),
    ("zipfian", True): ("82522e14d021f2c0cf3dad2efeb5aeb7",
                        ("scan", "puser00000583", 50), ("get", "ouser00000569")),
    ("uniform", False): ("d1354857d33ec92d4c5f28b50e88e524",
                         ("scan", "user00000244", 50), ("scan", "user00000652", 50)),
    ("uniform", True): ("317d0b285c1e1bbe541985c7e219cbc6",
                        ("scan", "guser00000244", 50), ("scan", "quser00000652", 50)),
}


@pytest.mark.parametrize("distribution,spread_alpha", sorted(_STREAM_PINS))
def test_workload_stream_is_pinned(distribution, spread_alpha):
    wl = make_workload(OpMix(get=0.5, put=0.3, scan=0.2), keys=1000,
                       distribution=distribution, seed=7, spread_alpha=spread_alpha)
    ops = [wl.next_op() for _ in range(200)]
    digest, first, last = _STREAM_PINS[(distribution, spread_alpha)]
    assert (ops[0], ops[-1]) == (first, last)
    assert hashlib.sha256(repr(ops).encode()).hexdigest()[:32] == digest


def test_sessions_of_one_shape_share_their_tables():
    a = make_workload(YCSB_B, keys=500, seed=1)
    b = make_workload(YCSB_B, keys=500, seed=2)
    other = make_workload(YCSB_B, keys=501, seed=1)
    assert a.popularity._table is b.popularity._table
    assert a.space._table is b.space._table
    assert other.popularity._table is not a.popularity._table
    assert KeySpace(500, spread_alpha=True)._table is not a.space._table
    # a shared key string is the one object every session hands out
    key = a.space.key(3)
    assert b.space.key(3) is key
    # separate RNGs: the streams still differ
    assert [a.next_op() for _ in range(20)] != [b.next_op() for _ in range(20)]
