"""Benchmark gate: a fresh perfbench run against the committed one.

Usage::

    python benchmarks/bench_guard.py FRESH COMMITTED

Both files are ``perfbench.result/1`` output of ``python3 -m perfbench
run --quick --seed 1 --traced``; COMMITTED is the newest
``BENCH_PR<N>.json`` at the repo root.  The guard checks only the rows
that repeat bit for bit per seed: on each of the five simulated
workloads every sim-clock end-to-end row (``spec.SIM_CLOCK``), every
exact count (``spec.EXACT_COUNTS``) and ``attempted`` must be equal,
with ``correct`` true and ``failed`` 0.  Wall-clock rows never gate, and
the socket workload, which has no simulated clock, gates only on
``correct``.  A change that moves a deterministic row on purpose commits
its own ``BENCH_PR<N>.json``, points CI at it and says so in CHANGES.md.

Exit status: 0 = every gated row is equal; 1 = a row differs, an output
check failed, or a file is missing or not a perfbench result; 2 = the
runs are not comparable, because seed, ``seconds``, the Python minor
version or numpy differ (Python 3.12's ``sum()`` compensates float
error, and the key streams are numpy permutations, so the same code can
move sim rows across them).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import spec  # noqa: E402

SCHEMA = "perfbench.result/1"


class Unreadable(Exception):
    """A file that is missing or is not a perfbench result."""


def load(path: Path) -> dict:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise Unreadable(f"cannot read {path}: {e}")
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise Unreadable(f"{path} is not a {SCHEMA} file")
    return doc


def _comparable_on(doc: dict) -> dict:
    prov = doc["provenance"]
    return {"seed": prov["seed"], "seconds": prov["seconds"],
            "python": ".".join(prov["python"].split(".")[:2]),
            "numpy": prov["numpy"]}


def mismatch(fresh: dict, committed: dict) -> Optional[str]:
    """The first provenance field that makes the two runs incomparable."""
    a, b = _comparable_on(fresh), _comparable_on(committed)
    for key in a:
        if a[key] != b[key]:
            return f"{key} {a[key]} (fresh) != {b[key]} (committed)"
    return None


def _value(entry: dict, kind: str, metric: str):
    return entry.get(kind, {}).get(metric, {}).get("value")


def differences(fresh: dict, committed: dict) -> List[str]:
    """Every gated row that differs, and every failed output check."""
    out = []
    for name in spec.WORKLOADS:
        f, c = fresh["workloads"].get(name), committed["workloads"].get(name)
        if f is None or c is None:
            out.append(f"{name}: missing from the {'fresh' if f is None else 'committed'} run")
            continue
        socket = name == spec.TCP_WORKLOAD.name
        for side, entry in (("fresh", f), ("committed", c)):
            if not entry["correct"]:
                out.append(f"{name}: outputs incorrect in the {side} run")
            if not socket and entry["failed"]:
                out.append(f"{name}: {entry['failed']} failed ops in the {side} run")
        if socket:
            continue
        rows = [("attempted", f["attempted"], c["attempted"])]
        rows += [(m, _value(f, "end_to_end", m), _value(c, "end_to_end", m))
                 for m in spec.SIM_CLOCK]
        rows += [(m, _value(f, "per_layer", m), _value(c, "per_layer", m))
                 for m in spec.EXACT_COUNTS]
        out += [f"{name} {m}: committed {b!r}, fresh {a!r}" for m, a, b in rows if a != b]
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench_guard.py")
    parser.add_argument("fresh", type=Path)
    parser.add_argument("committed", type=Path)
    args = parser.parse_args(argv[1:])
    print(f"bench guard: {args.fresh.name} vs {args.committed.name}")
    try:
        fresh, committed = load(args.fresh), load(args.committed)
    except Unreadable as e:
        print(f"bench guard: FAIL: {e}")
        return 1
    why = mismatch(fresh, committed)
    if why:
        print(f"bench guard: refused, runs not comparable: {why}")
        return 2
    failures = differences(fresh, committed)
    if failures:
        print("bench guard: FAIL")
        for line in failures:
            print(f"  - {line}")
        return 1
    rows = len(spec.SIM_WORKLOADS) * (len(spec.SIM_CLOCK) + len(spec.EXACT_COUNTS))
    print(f"bench guard: PASS, {rows} deterministic rows and attempted equal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
