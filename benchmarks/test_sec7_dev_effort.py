"""§VII — development effort: the reuse story in numbers.

The paper: "All controlets share the sample event-handling controlet
template of 150 LoC ... the common datalet template of 966 LoC" and
new datalets/controlets took 3 / 6 person-days.  Here the measurable
analogue: each pre-built controlet is a small delta over the shared
framework (base Controlet + actor machinery), and each datalet engine
a small delta over the engine/actor template.

The controlet sizes are a **ratchet**: every bound below is the size
measured when it was last lowered, so growth fails here (in CI's
``test`` job) instead of going unseen.  Bounds may only go down.
"""

import inspect

from conftest import save_result

from bench_lib import print_table
from repro.core import controlet as controlet_mod
from repro.core.aa_ec import AAEventualControlet
from repro.core.aa_sc import AAStrongControlet
from repro.core.hybrid import AAMSHybridControlet
from repro.core.ms_ec import MSEventualControlet
from repro.core.ms_sc import MSStrongControlet
from repro.datalet import base as datalet_base
from repro.datalet.btree import BTreeEngine
from repro.datalet.hashtable import HashTableEngine
from repro.datalet.log import LogEngine
from repro.datalet.lsm import LSMEngine


#: logical-LoC ceilings, each the size measured when it was last lowered
#: (framework pieces, then per-controlet deltas).
FRAMEWORK_BOUNDS = {
    "controlet template": 719,
    "MS accept base": 63,
}
CONTROLET_BOUNDS = {
    "MS+SC (chain replication)": 207,
    "MS+EC (async propagation)": 319,
    "AA+SC (DLM locking)": 182,
    "AA+EC (shared log)": 255,
    "AA-MS hybrid (§IV-E)": 60,
}
#: template + shared bases + the five deltas.
CONTROL_PLANE_BOUND = 1805


def loc(obj) -> int:
    """Logical lines of code: non-blank, non-comment source lines."""
    lines = inspect.getsource(obj).splitlines()
    return sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))


def test_sec7_dev_effort(benchmark):
    def run():
        return {
            "framework": {
                "controlet template": loc(controlet_mod.Controlet),
                # shared by MS+SC and MS+EC, so it counts as framework
                "MS accept base": loc(controlet_mod.MasterSlaveControlet),
                "datalet template": loc(datalet_base.Engine) + loc(datalet_base.DataletActor),
            },
            "controlets": {
                "MS+SC (chain replication)": loc(MSStrongControlet),
                "MS+EC (async propagation)": loc(MSEventualControlet),
                "AA+SC (DLM locking)": loc(AAStrongControlet),
                "AA+EC (shared log)": loc(AAEventualControlet),
                "AA-MS hybrid (§IV-E)": loc(AAMSHybridControlet),
            },
            "datalets": {
                "tHT": loc(HashTableEngine),
                "tMT": loc(BTreeEngine),
                "tLSM": loc(LSMEngine),
                "tLog": loc(LogEngine),
            },
        }

    counts = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [["-- framework --", ""]]
    rows += [[k, v] for k, v in counts["framework"].items()]
    rows += [["-- controlet deltas --", ""]]
    rows += [[k, v] for k, v in counts["controlets"].items()]
    rows += [["-- datalet engines --", ""]]
    rows += [[k, v] for k, v in counts["datalets"].items()]
    print_table("§VII: development effort (logical LoC)", ["component", "LoC"], rows)
    save_result("sec7", counts)

    # every pre-built controlet is a compact delta over the framework —
    # the paper's template story — and none of it may grow back
    for name, bound in FRAMEWORK_BOUNDS.items():
        n = counts["framework"][name]
        assert n <= bound, f"{name} grew to {n} LoC (ratchet: {bound})"
    for name, bound in CONTROLET_BOUNDS.items():
        n = counts["controlets"][name]
        assert n <= bound, f"{name} grew to {n} LoC (ratchet: {bound})"
        assert n < counts["framework"]["controlet template"]
    total = (sum(counts["framework"][k] for k in FRAMEWORK_BOUNDS)
             + sum(counts["controlets"].values()))
    assert total <= CONTROL_PLANE_BOUND, f"control plane grew to {total} LoC"
    # datalet engines are standalone and small
    for name, n in counts["datalets"].items():
        assert n < 300, f"{name} is {n} LoC"
