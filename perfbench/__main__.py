"""Command line: ``python3 -m perfbench run|compare|manifest``.

``run --workload W --seed S --seconds N --trace 0|1`` is one run of one
workload (the entry point ``BENCHMARK.json`` names); its last stdout
line is the result object.  ``run --seed S`` without ``--workload``
runs all six, each in a fresh child interpreter, and writes one result
file with provenance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from perfbench import ROOT, need_repro


def _parser() -> argparse.ArgumentParser:
    from perfbench import spec

    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="measure one workload, or all of them")
    run.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1 = the traced pass: per-layer metrics instead of end-to-end")
    run.add_argument("--traced", action="store_true",
                     help="all-workloads mode: also make the traced pass")
    run.add_argument("--repeat", type=int, default=1,
                     help="all-workloads mode: untraced runs per workload")
    run.add_argument("--quick", action="store_true", help="every window <= 1 s")
    run.add_argument("--out", default=str(ROOT / "perfbench" / "results"))
    cmp_ = sub.add_parser("compare", help="compare two result files")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    sub.add_parser("manifest", help="print the content of BENCHMARK.json")
    return parser


def main(argv: List[str]) -> int:
    need_repro()
    args = _parser().parse_args(argv)
    if args.cmd == "manifest":
        from perfbench import spec
        print(json.dumps(spec.manifest(), indent=2))
        return 0
    if args.cmd == "compare":
        from perfbench import compare
        return compare.main(args.a, args.b)
    if args.quick:
        args.seconds = min(args.seconds, 1.0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.workload:
        return _run_one(args, out, argv)
    return _run_all(args, out, argv)


# ---------------------------------------------------------------------------
def _run_one(args, out: Path, argv: List[str]) -> int:
    from perfbench import provenance, spec
    from perfbench.run import contract_line, run_workload

    prov = provenance.collect(args.seed, args.seconds, ["-m", "perfbench", *argv])
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), out,
                           quick=args.quick)
    prov["wall_end"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    metrics, attempted, failed, problems, detail = outcome
    kind = "per_layer" if args.trace else "end_to_end"
    table = spec.PER_LAYER if args.trace else [m[:3] for m in spec.END_TO_END]
    entry = {
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed, "detail": detail,
        kind: {name: {"unit": unit, "values": [metrics[name]], "value": metrics[name]}
               for name, unit, _ in table},
    }
    path = out / f"{args.workload}.trace{args.trace}.seed{args.seed}.json"
    path.write_text(json.dumps({"schema": "perfbench.result/1", "provenance": prov,
                                "workloads": {args.workload: entry}}, indent=1))
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, unit, _ in table:
        print(f"{name:34s} {metrics[name]:16.6f} {unit}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(f"# attempted={attempted} failed={failed} result file: {path}")
    print(contract_line(kind, outcome))
    return 0 if not problems else 1


def _run_all(args, out: Path, argv: List[str]) -> int:
    from perfbench import provenance, spec

    prov = provenance.collect(args.seed, args.seconds, ["-m", "perfbench", *argv])
    workloads: Dict[str, dict] = {}
    ok = True
    for name in spec.WORKLOADS:
        passes = [0] * args.repeat + ([1] if args.traced else [])
        merged: dict = {}
        for trace in passes:
            entry = _child(name, args, trace, out)
            if not merged:
                merged = entry
                continue
            merged["correct"] = merged["correct"] and entry["correct"]
            merged["problems"] += entry["problems"]
            if trace:
                merged["per_layer"] = entry["per_layer"]
                merged["traced_detail"] = entry["detail"]
                continue
            merged["attempted"] += entry["attempted"]
            merged["failed"] += entry["failed"]
            for metric, cell in entry["end_to_end"].items():
                merged["end_to_end"][metric]["values"] += cell["values"]
        for cell in merged.get("end_to_end", {}).values():
            cell["value"] = statistics.median(cell["values"])
        workloads[name] = merged
        ok = ok and merged["correct"] and merged["failed"] == 0
        _print_entry(name, merged)
    prov["wall_end"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    path = out / f"run.seed{args.seed}.json"
    path.write_text(json.dumps({"schema": "perfbench.result/1", "provenance": prov,
                                "workloads": workloads}, indent=1))
    print(f"# result file: {path}")
    return 0 if ok else 1


def _child(name: str, args, trace: int, out: Path) -> dict:
    """One run in a fresh interpreter; returns its result-file entry."""
    cmd = [sys.executable, "-m", "perfbench", "run", "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--out", str(out)] + (["--quick"] if args.quick else [])
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode not in (0, 1):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: {name} (trace {trace}) exited {done.returncode}")
    path = out / f"{name}.trace{trace}.seed{args.seed}.json"
    return json.loads(path.read_text())["workloads"][name]


def _print_entry(name: str, entry: dict) -> None:
    verdict = "correct" if entry["correct"] else "INCORRECT"
    print(f"\n== {name}: {verdict}, attempted {entry['attempted']}, failed {entry['failed']}")
    for kind in ("end_to_end", "per_layer"):
        for metric, cell in entry.get(kind, {}).items():
            print(f"  {metric:34s} {cell['value']:16.6f} {cell['unit']}")
    for problem in entry["problems"]:
        print(f"  INCORRECT: {problem}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
