"""Provenance stamped into every result file, so a stale or mismatched
result is detectable: a benchmark whose result file is stale is a wrong
answer."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from typing import List

from perfbench import ROOT, spec


def _git(*args: str) -> str:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def collect(seed: int, seconds: float, argv: List[str]) -> dict:
    import numpy

    commit = _git("rev-parse", "HEAD")
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = []
    windows = {w.name: {"sim_window_s": w.sim_s_per_run_s * seconds,
                        "warmup_sim_s": w.sim_s_per_run_s * seconds * spec.WARMUP_FRAC,
                        "sessions": w.sessions}
               for w in spec.SIM_WORKLOADS}
    tcp = spec.TCP_WORKLOAD
    windows[tcp.name] = {"closed_s": tcp.closed_frac * seconds,
                         "rungs_per_s": list(tcp.rungs),
                         "rung_s": [f * seconds for f in tcp.rung_fracs]}
    return {
        # a checkout that is not a git repository has no commit to name
        "git_commit": commit or "unknown",
        "git_dirty": bool(_git("status", "--porcelain")) if commit else None,
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "cost_scale": spec.COST_SCALE,
        "cluster": {"shards": spec.SHARDS, "replicas": spec.REPLICAS,
                    "standbys": spec.STANDBYS, "clients": spec.CLIENTS},
        "windows": windows,
        "command": [sys.executable, *argv],
        "wall_start": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
