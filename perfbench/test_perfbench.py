"""Checks on the benchmark itself (not part of tier-1).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.  Every run
here uses the quick mode: windows of at most one second.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

from perfbench import ROOT, need_repro

need_repro()

from perfbench import compare, spec, tcpload  # noqa: E402
from perfbench.run import contract_line, run_workload  # noqa: E402

QUICK_SECONDS = 0.5
SIM_NAMES = [w.name for w in spec.SIM_WORKLOADS]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def out(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("perfbench-results")


@pytest.fixture(scope="module")
def outcomes(out):
    """One quick run per (workload, trace, seed) asked for, cached."""
    cache = {}

    def get(name: str, trace: bool, seed: int = 1, again: int = 0):
        key = (name, trace, seed, again)
        if key not in cache:
            cache[key] = run_workload(name, seed, QUICK_SECONDS, trace, out, quick=True)
        return cache[key]

    return get


# -- the manifest ------------------------------------------------------------
def test_benchmark_json_is_the_manifest():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.manifest()
    assert set(on_disk) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}


def test_manifest_meets_the_contract_limits():
    m = spec.manifest()
    assert 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16 and 1 <= len(m["per_layer"]) <= 128
    assert 1 <= m["run_seconds"] <= 60
    names = [w["name"] for w in m["workloads"]] + \
        [x["name"] for x in m["end_to_end"] + m["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(x["unit"]) for x in m["end_to_end"] + m["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in m["workloads"])
    assert all(0 < x["bound"] <= 0.25 for x in m["end_to_end"])
    setup = next(x for x in m["end_to_end"] if x["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(x["bound"] for x in m["end_to_end"])
    assert len(json.dumps(m)) < 64 * 1024


# -- every metric, on every workload, with its unit --------------------------
@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_end_to_end_metrics_are_emitted_and_never_zero(outcomes, name):
    outcome = outcomes(name, False)
    line = json.loads(contract_line("end_to_end", outcome))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, outcome[3]
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m[0] for m in spec.END_TO_END]
    for metric, unit, _, _ in spec.END_TO_END:
        cell = line["metrics"][metric]
        assert cell["unit"] == unit
        assert cell["value"] > 0, metric


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_per_layer_metrics_are_emitted(outcomes, name):
    outcome = outcomes(name, True)
    line = json.loads(contract_line("per_layer", outcome))
    assert line["correct"] is True, outcome[3]
    assert list(line["metrics"]) == [m[0] for m in spec.PER_LAYER]
    for metric, unit, _ in spec.PER_LAYER:
        assert line["metrics"][metric]["unit"] == unit
    values = {k: v["value"] for k, v in line["metrics"].items()}
    # the ladder runs in isolation, so it has a value on every workload
    assert all(values[m] > 0 for m in values if m.endswith("_ns") and not m.startswith("tcp."))
    on_socket = name == spec.TCP_WORKLOAD.name
    assert (values["tcp.closed_p50_us"] > 0) == on_socket
    assert (values["kernel.events_per_op"] > 0) == (not on_socket)


# -- the two clocks -----------------------------------------------------------
@pytest.mark.parametrize("name", SIM_NAMES)
def test_sim_clock_repeats_per_seed_and_moves_with_it(outcomes, name):
    first, again = outcomes(name, False), outcomes(name, False, again=1)
    other = outcomes(name, False, seed=2)
    for metric in spec.SIM_CLOCK:
        assert first[0][metric] == again[0][metric], metric
    assert first[1] == again[1]                      # attempted
    assert first[4]["stream_digest"] == again[4]["stream_digest"]
    assert first[4]["stream_digest"] != other[4]["stream_digest"]
    assert any(first[0][m] != other[0][m] for m in spec.SIM_CLOCK)
    # wall metrics are measured, not computed: they never repeat exactly
    assert first[0]["wall_ops_per_s"] != again[0]["wall_ops_per_s"]


@pytest.mark.parametrize("name", ["ms_sc_write", "aa_sc_lock", "ms_ec_durable_lsm"])
def test_exact_counts_repeat_per_seed(outcomes, name):
    first, again = outcomes(name, True), outcomes(name, True, again=1)
    for metric in spec.EXACT_COUNTS:
        assert first[0][metric] == again[0][metric], metric
    other = outcomes(name, True, seed=2)
    assert any(first[0][m] != other[0][m] for m in spec.EXACT_COUNTS)


@pytest.mark.parametrize("name", SIM_NAMES)
def test_traced_shares_add_up(outcomes, name):
    metrics = outcomes(name, True)[0]
    shares = [metrics[f"{layer}.self_frac"] for layer in spec.TRACE_LAYERS]
    assert all(0.0 <= s <= 1.0 for s in shares)
    assert sum(shares) + metrics["trace.unattributed_frac"] == pytest.approx(1.0, abs=0.01)
    # quick windows are ~0.1 s of wall time, so the clock reads between
    # slices weigh more here than in a full run (0.08-0.12)
    assert 0.0 <= metrics["trace.unattributed_frac"] <= 0.3
    trace = json.loads(Path(outcomes(name, True)[4]["trace_file"]).read_text())
    assert 0 < len(trace["op_trees"]) <= spec.KEEP_OP_TREES
    spans = trace["op_trees"]["1"]
    ids = {s["span"] for s in spans}
    assert all(s["end_ns"] >= s["start_ns"] for s in spans)
    assert all(s["parent"] == 0 or s["parent"] in ids for s in spans)


def test_the_layer_each_workload_is_there_for_shows_in_its_trace(outcomes):
    share = {n: outcomes(n, True)[0] for n in SIM_NAMES}
    assert share["aa_sc_lock"]["dlm.self_frac"] > 0 == share["ms_sc_write"]["dlm.self_frac"]
    storage = lambda m: m["datalet.self_frac"] + m["wal.self_frac"]  # noqa: E731
    assert storage(share["ms_ec_durable_lsm"]) > 2 * storage(share["ms_sc_write"])
    assert share["aa_ec_read"]["sharedlog.self_frac"] > 0


# -- the open loop times from the due time ------------------------------------
def test_open_loop_charges_a_stall_to_the_requests_behind_it():
    import random

    stalled = []

    def issue(op):
        if op[1] == 100:
            time.sleep(0.05)          # one 50 ms server stall
            stalled.append(op[1])

    ops = [("get", i) for i in range(600)]
    result = tcpload.open_loop(issue, ops, 2000.0, random.Random(3))
    assert stalled == [100]
    # ~100 requests fell due during the stall; timed from their due time
    # they waited up to 50 ms.  Timed from the send, only one would.
    assert result["p99_us"] > 25_000
    assert result["p50_us"] < 5_000
    assert result["send_lag_p99_us"] > 25_000


def test_max_ok_rate_stops_at_the_first_failing_rung():
    rung = lambda rate, p99, growing=False: {  # noqa: E731
        "offered_per_s": rate, "p99_us": p99, "send_lag_growing": growing, "failed": 0}
    assert tcpload.max_ok_rate([rung(1, 10), rung(2, 2000), rung(3, 10)], 1000) == 1
    assert tcpload.max_ok_rate([rung(1, 10), rung(2, 10, True)], 1000) == 1
    assert tcpload.max_ok_rate([rung(1, 10), rung(2, 10)], 1000) == 2


# -- compare -------------------------------------------------------------------
def _result(tmp_path, label, **overrides):
    cells = {name: 100.0 for name, _, _, _ in spec.END_TO_END}
    cells["wall_ops_per_s"] = 1000.0
    cells.update(overrides)
    entry = {
        "correct": True, "problems": [], "attempted": 1000, "failed": 0,
        "end_to_end": {
            k: {"unit": "x", "value": v if not isinstance(v, list) else sorted(v)[len(v) // 2],
                "values": v if isinstance(v, list) else [v]}
            for k, v in cells.items()},
    }
    doc = {"schema": "perfbench.result/1",
           "provenance": {"git_commit": label, "seed": 1, "seconds": 1.0},
           "workloads": {"ms_sc_write": entry}}
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = _result(tmp_path, "a")
    assert compare.main(base, _result(tmp_path, "same")) == 0
    assert compare.main(base, _result(tmp_path, "slower", wall_ops_per_s=700.0)) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main(base, _result(tmp_path, "faster", wall_ops_per_s=1500.0)) == 0
    noisy = _result(tmp_path, "noisy", wall_ops_per_s=[500.0, 800.0, 1000.0, 1200.0, 1500.0])
    assert compare.main(base, noisy) == 0
    assert "unresolved" in capsys.readouterr().out


def test_compare_fails_on_a_higher_failed_fraction(tmp_path):
    base = _result(tmp_path, "a")
    doc = json.loads(Path(base).read_text())
    doc["workloads"]["ms_sc_write"]["failed"] = 3
    worse = tmp_path / "failing.json"
    worse.write_text(json.dumps(doc))
    assert compare.main(base, str(worse)) == 1
