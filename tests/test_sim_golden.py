"""Golden runs: pin the simulated clock across commits.

Each combo runs a small, fixed deployment (1 shard x 3 replicas on the
``ht`` engine, seed 1) under 4 closed-loop sessions of 50 mixed get/put
ops, and the test compares what the simulation computed - events
executed, messages and bytes sent, and a digest of every op's
``(op, key, t_start, t_end)`` - against constants recorded once.

The soaks compare two runs of the *same* code; this test compares the
code with its past.  A refactor of the kernel, the network or the
fabric that keeps the order of ``call_later`` calls and of RNG draws
keeps every number here.  A change that moves simulated time on
purpose updates the constants and says why.
"""

import hashlib

import pytest

from repro.core.types import Consistency, Topology
from repro.errors import BespoError, KeyNotFound
from repro.harness import Deployment, DeploymentSpec
from repro.sim import CostModel

SESSIONS = 4
OPS_PER_SESSION = 50
KEYS = 16

#: combo -> (events_processed, messages_sent, bytes_sent, op digest)
GOLDEN = {
    ("ms", "strong"): (3272, 1617, 126752, "611f7054ed8272a2"),
    ("ms", "eventual"): (2854, 1374, 113162, "72baf4890739e0bf"),
    ("aa", "strong"): (5913, 2945, 219661, "b5dc4635c9e20521"),
    ("aa", "eventual"): (4195, 1973, 161303, "d03c38721950437c"),
}


def _session(sim, client, index, records):
    for j in range(OPS_PER_SESSION):
        key = f"k{(index * 7 + j * 3) % KEYS}"
        op = "put" if (index + j) % 3 != 0 else "get"
        t0 = sim.now
        try:
            if op == "put":
                yield client.put(key, f"v{index}.{j}")
            else:
                yield client.get(key)
        except KeyNotFound:
            pass
        except BespoError:
            op += "!"
        records.append((op, key, t0, sim.now))


def golden_run(topology: str, consistency: str):
    dep = Deployment(DeploymentSpec(
        shards=1, replicas=3, topology=Topology(topology),
        consistency=Consistency(consistency), datalet_kinds=("ht",),
        costs=CostModel(cpu_scale=600.0), standbys=0, seed=1,
    ))
    dep.start()
    sim = dep.sim
    clients = [dep.client(f"golden{i}") for i in range(SESSIONS)]
    for client in clients:
        sim.run_future(client.connect())
    records: list = []
    sessions = [sim.spawn(_session(sim, c, i, records)) for i, c in enumerate(clients)]
    sim.run_future(sim.gather(sessions), timeout=600.0)
    digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    net = dep.cluster.network
    return sim.events_processed, net.messages_sent, net.bytes_sent, digest


@pytest.mark.parametrize("combo", list(GOLDEN), ids=lambda c: "-".join(c))
def test_golden_run_pins_the_sim_clock(combo):
    assert golden_run(*combo) == GOLDEN[combo]
