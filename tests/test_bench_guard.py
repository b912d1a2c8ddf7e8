"""Unit tests for the benchmark gate, ``benchmarks/bench_guard.py``.

Each case writes one minimal perfbench-shaped pair of result files,
edits the fresh one, and checks one behaviour: which rows gate (the
sim-clock and exact-count rows of the simulated workloads), which never
do (wall clock, the socket workload), which inputs are refused as
incomparable, and that a missing file is a clean failure.  The last
test checks the committed ``BENCH_PR28.json`` that CI compares against.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = ROOT / "BENCH_PR28.json"

_spec = importlib.util.spec_from_file_location("bench_guard",
                                               ROOT / "benchmarks" / "bench_guard.py")
bench_guard = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_guard)
spec = bench_guard.spec

SIM = spec.SIM_WORKLOADS[0].name
TCP = spec.TCP_WORKLOAD.name
END_TO_END = [m for m, *_ in spec.END_TO_END]
PER_LAYER = [m for m, *_ in spec.PER_LAYER]


def _result() -> dict:
    entry = {"correct": True, "attempted": 1000, "failed": 0,
             "end_to_end": {m: {"value": 1.5} for m in END_TO_END},
             "per_layer": {m: {"value": 0.25} for m in PER_LAYER}}
    return {"schema": "perfbench.result/1",
            "provenance": {"seed": 1, "seconds": 1.0, "python": "3.11.7", "numpy": "2.4.6"},
            "workloads": {name: copy.deepcopy(entry) for name in spec.WORKLOADS}}


def _guard(tmp_path, edit=lambda doc: None, committed=None):
    """Run the CLI on an edited fresh file against an unedited one."""
    fresh = _result()
    edit(fresh)
    fresh_path, committed_path = tmp_path / "fresh.json", tmp_path / "committed.json"
    fresh_path.write_text(json.dumps(fresh))
    committed_path.write_text(json.dumps(_result() if committed is None else committed))
    return bench_guard.main(["bench_guard.py", str(fresh_path), str(committed_path)])


def _rows(workload, kind, metrics, value=9.0):
    def edit(doc):
        for m in metrics:
            doc["workloads"][workload][kind][m]["value"] = value
    return edit


def _outcome(workload, **fields):
    return lambda doc: doc["workloads"][workload].update(fields)


def _prov(**fields):
    return lambda doc: doc["provenance"].update(fields)


def test_main_uses_positional_paths(tmp_path, capsys):
    assert _guard(tmp_path) == 0
    out = capsys.readouterr().out
    assert "fresh.json vs committed.json" in out and "PASS, 110 deterministic rows" in out
    with pytest.raises(SystemExit) as exit_:
        bench_guard.main(["bench_guard.py", str(tmp_path / "fresh.json")])
    assert exit_.value.code == 2  # neither path has a default


def test_edited_service_qps_fails_naming_workload_and_metric(tmp_path, capsys):
    assert _guard(tmp_path, _rows(SIM, "end_to_end", ["service_qps"], 1.25)) == 1
    assert f"{SIM} service_qps: committed 1.5, fresh 1.25" in capsys.readouterr().out


def test_edited_exact_count_fails(tmp_path, capsys):
    assert _guard(tmp_path, _rows("mt_scan", "per_layer", ["kernel.events_per_op"])) == 1
    assert "mt_scan kernel.events_per_op" in capsys.readouterr().out


@pytest.mark.parametrize("edit", [
    _outcome(SIM, attempted=999),
    _outcome(SIM, failed=1),
    _outcome(SIM, correct=False),
    _outcome(TCP, correct=False),
], ids=["attempted", "failed", "incorrect", "tcp-incorrect"])
def test_run_outcome_gates(tmp_path, edit):
    assert _guard(tmp_path, edit) == 1


NEVER_GATED = {
    "wall-rows": _rows(SIM, "end_to_end", ["wall_ops_per_s", "setup_s", "peak_rss_mb"]),
    "ladder-ns-rows": _rows(SIM, "per_layer", [m for m in PER_LAYER if m.endswith("_ns")]),
    "tcp-end-to-end": _rows(TCP, "end_to_end", END_TO_END),
    "tcp-per-layer": _rows(TCP, "per_layer", PER_LAYER),
    "tcp-outcome": _outcome(TCP, attempted=5, failed=3),
    "python-patch-level": _prov(python="3.11.9"),
}


@pytest.mark.parametrize("edit", list(NEVER_GATED.values()), ids=list(NEVER_GATED))
def test_rows_that_never_gate(tmp_path, edit):
    assert _guard(tmp_path, edit) == 0


@pytest.mark.parametrize("field, value", [
    ("seed", 2), ("seconds", 7.0), ("python", "3.12.1"), ("numpy", "2.3.0"),
])
def test_incomparable_provenance_is_refused(tmp_path, capsys, field, value):
    assert _guard(tmp_path, _prov(**{field: value})) == 2
    refusal = [line for line in capsys.readouterr().out.splitlines() if "refused" in line]
    assert len(refusal) == 1 and field in refusal[0]


def test_renamed_workload_key_reads_as_missing(tmp_path, capsys):
    def rename(doc):
        doc["workloads"][SIM + "_v2"] = doc["workloads"].pop(SIM)
    assert _guard(tmp_path, rename) == 1
    assert f"{SIM}: missing from the fresh run" in capsys.readouterr().out


def test_workload_dropped_from_committed_also_flagged(tmp_path, capsys):
    shrunk = _result()
    del shrunk["workloads"]["aa_sc_lock"]
    assert _guard(tmp_path, committed=shrunk) == 1
    assert "aa_sc_lock: missing from the committed run" in capsys.readouterr().out


def test_missing_baseline_fails_without_traceback(tmp_path, capsys):
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps(_result()))
    assert bench_guard.main(["bench_guard.py", str(fresh), str(tmp_path / "nope.json")]) == 1
    out = capsys.readouterr().out
    assert "bench guard: FAIL" in out and "nope.json" in out


def test_missing_current_fails_without_traceback(tmp_path, capsys):
    committed = tmp_path / "committed.json"
    committed.write_text(json.dumps(_result()))
    assert bench_guard.main(["bench_guard.py", str(tmp_path / "gone.json"), str(committed)]) == 1
    assert "gone.json" in capsys.readouterr().out


def test_non_perfbench_file_fails_without_traceback(tmp_path, capsys):
    assert _guard(tmp_path, committed={"figures": {}}) == 1
    assert "is not a perfbench.result/1 file" in capsys.readouterr().out


def test_committed_result_is_a_clean_traced_quick_run():
    doc = json.loads(COMMITTED.read_text())
    prov = doc["provenance"]
    assert (prov["seed"], prov["seconds"], prov["git_dirty"]) == (1, 1.0, False)
    for wl in spec.SIM_WORKLOADS:
        entry = doc["workloads"][wl.name]
        assert entry["correct"] and entry["failed"] == 0, wl.name
        assert set(entry["per_layer"]) == set(PER_LAYER), wl.name
