"""``python3 -m perfbench compare A.json B.json``: did B get worse than A?

One row per (workload, end-to-end metric): both medians, the ratio B/A,
the metric's bound and a verdict.  ``unresolved`` means the run-to-run
spread of either side is wider than the bound, so the two cannot be told
apart — it is not the same as unchanged.  Counts made by the program
are diffed for equality.  Exit 1 on any ``worse`` row or on a higher
failed fraction.
"""

from __future__ import annotations

import json
import statistics
from typing import List, Optional

from perfbench import spec


def spread(values: List[float]) -> Optional[float]:
    """IQR over median; None when there are too few runs to say."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    spreads = [s for s in (spread(a["values"]), spread(b["values"])) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved"
    worse_by = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        worse_by = -worse_by
    return "worse" if worse_by > bound else "ok"


def main(a_path: str, b_path: str) -> int:
    with open(a_path) as fh:
        a = json.load(fh)
    with open(b_path) as fh:
        b = json.load(fh)
    same_seed = a["provenance"]["seed"] == b["provenance"]["seed"] and \
        a["provenance"]["seconds"] == b["provenance"]["seconds"]
    print(f"A: {a_path}  commit {a['provenance']['git_commit'][:12]} seed {a['provenance']['seed']}")
    print(f"B: {b_path}  commit {b['provenance']['git_commit'][:12]} seed {b['provenance']['seed']}")
    print(f"{'workload':20s} {'metric':22s} {'A':>14s} {'B':>14s} {'B/A':>8s} {'bound':>6s}  verdict")
    bad = 0
    for name in spec.WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        for metric, unit, better, bound in spec.END_TO_END:
            ca, cb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            v = verdict(ca, cb, better, bound)
            if same_seed and metric in spec.SIM_CLOCK and name != spec.TCP_WORKLOAD.name \
                    and ca["value"] != cb["value"]:
                v += " (sim clock differs)"
            bad += v.startswith("worse")
            print(f"{name:20s} {metric:22s} {ca['value']:14.4f} {cb['value']:14.4f} "
                  f"{cb['value'] / ca['value']:8.4f} {bound:6.2f}  {v}")
        fa = wa["failed"] / max(1, wa["attempted"])
        fb = wb["failed"] / max(1, wb["attempted"])
        if fb > fa:
            bad += 1
            print(f"{name:20s} {'failed_frac':22s} {fa:14.6f} {fb:14.6f} {'':8s} {'':6s}  worse")
        if not (wa["correct"] and wb["correct"]):
            bad += 1
            print(f"{name:20s} outputs incorrect: A={wa['correct']} B={wb['correct']}")
        if same_seed and "per_layer" in wa and "per_layer" in wb:
            for metric in spec.EXACT_COUNTS:
                va, vb = wa["per_layer"][metric]["value"], wb["per_layer"][metric]["value"]
                if va != vb:
                    print(f"{name:20s} {metric:30s} count differs: {va!r} -> {vb!r}")
    print("no row is worse" if not bad else f"{bad} row(s) worse")
    return 1 if bad else 0
