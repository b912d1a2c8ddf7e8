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

from repro.chaos import FaultEvent, FaultSchedule, run_combo
from repro.core.types import Consistency, Topology
from repro.dlm.manager import LockManagerActor
from repro.errors import BespoError, KeyNotFound
from repro.harness import Deployment, DeploymentSpec
from repro.net.actor import Actor
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


#: combo -> digest of ``repro chaos --seed 1 --duration 12 --reshard``:
#: two live cutovers (add, then drain+remove) under the mild fault
#: menu, so census, copy, admission and fence all run.  Recorded once,
#: like :data:`GOLDEN`; a reshard refactor must keep every value.
RESHARD_GOLDEN = {
    ("ms", "strong"): "1621e35bf5539669",
    ("ms", "eventual"): "599adefa590ba9fb",
    ("aa", "strong"): "73736bc6af61b6c2",
    ("aa", "eventual"): "1d609c9bd0bcdcb8",
}


@pytest.mark.parametrize("combo", list(RESHARD_GOLDEN), ids=lambda c: "-".join(c))
def test_reshard_soak_pins_the_digest(combo):
    res = run_combo(Topology(combo[0]), Consistency(combo[1]), seed=1,
                    duration=12.0, reshard=True)
    assert res.ok and res.stats["reshards"] == 2
    assert res.digest[:16] == RESHARD_GOLDEN[combo]


#: (events_processed, messages_sent, bytes_sent, op digest) of
#: :func:`scan_golden_run`.  Recorded once, like :data:`GOLDEN`; a
#: client routing or retry refactor must keep every value.
SCAN_GOLDEN = (3581, 1656, 142149, "80a5d66f97847650")


def _scan_session(sim, client, index, records):
    for j in range(OPS_PER_SESSION):
        c = chr(ord("a") + (index * 5 + j * 7) % 26)
        key = f"{c}{j % 4}"
        kind = (index + j) % 5
        t0 = sim.now
        n = None
        try:
            if kind == 0:
                # limited: shards are walked in key order until it fills
                items = yield client.scan(key, "\uffff", limit=10)
                op, n = "scan", len(items)
            elif kind == 3:
                # unlimited: scatter-gather over the covering shards
                items = yield client.scan(c, chr(ord(c) + 3))
                op, n = "scan*", len(items)
            elif kind == 2:
                op = "get"
                yield client.get(key)
            else:
                op = "put"
                yield client.put(key, f"v{index}.{j}")
        except KeyNotFound:
            pass
        except BespoError:
            op += "!"
        records.append((op, key, t0, sim.now, n))


def scan_golden_run():
    """MS+EC on the B+-tree, range-partitioned over 3 shards, seed 1:
    4 sessions mixing put, get, limited and unlimited scans."""
    dep = Deployment(DeploymentSpec(
        shards=3, replicas=3, topology=Topology.MS,
        consistency=Consistency.EVENTUAL, datalet_kinds=("mt",),
        partitioner="range", costs=CostModel(cpu_scale=600.0), standbys=0,
        seed=1,
    ))
    dep.start()
    sim = dep.sim
    clients = [dep.client(f"golden{i}") for i in range(SESSIONS)]
    for client in clients:
        sim.run_future(client.connect())
    records: list = []
    sessions = [sim.spawn(_scan_session(sim, c, i, records))
                for i, c in enumerate(clients)]
    sim.run_future(sim.gather(sessions), timeout=600.0)
    digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    net = dep.cluster.network
    return sim.events_processed, net.messages_sent, net.bytes_sent, digest


def test_scan_golden_run_pins_the_sim_clock():
    assert scan_golden_run() == SCAN_GOLDEN


#: combo -> (digest, RPC timeouts fired, DLM leases expired) of
#: :func:`fault_golden_run`.  The two soaks above rarely let a timer
#: fire: every RPC is answered and every lease released, so each
#: timeout and lease is cancelled before it is due.  This run crashes
#: hosts under load, so timeouts fire and AA+SC leases expire, and a
#: kernel or fabric change to how cancelled and live timers share the
#: schedule shows here.  Recorded once, like :data:`GOLDEN`.
FAULT_GOLDEN = {
    ("ms", "strong"): ("f8c6bb598ce0b5d9", 15, 0),
    ("ms", "eventual"): ("b4f7b42162994c44", 14, 0),
    ("aa", "strong"): ("e367c52dd4b2d951", 19, 6),
    ("aa", "eventual"): ("bca69a749d4354e8", 11, 0),
}


def fault_golden_run(topology: str, consistency: str, monkeypatch):
    """``run_combo`` at seed 1 for 6 sim-seconds: the head of shard s0
    power-cycles (WAL replay, back inside the detection window) while
    a replica of s1 stays down long enough to be swept and replaced."""
    fired = {"timeouts": 0, "expired": 0}
    rpc_timeout = Actor._rpc_timeout
    expire = LockManagerActor._expire

    def counted_timeout(self, msg_id, dst, type):
        if self.alive and msg_id in self._pending:
            fired["timeouts"] += 1
        rpc_timeout(self, msg_id, dst, type)

    def counted_expire(self, key, owner):
        before = self.expired
        expire(self, key, owner)
        fired["expired"] += self.expired - before

    monkeypatch.setattr(Actor, "_rpc_timeout", counted_timeout)
    monkeypatch.setattr(LockManagerActor, "_expire", counted_expire)
    schedule = FaultSchedule([
        FaultEvent(at=0.5, kind="crash", target="node0.0"),
        FaultEvent(at=1.0, kind="restart", target="node0.0", recover=True),
        FaultEvent(at=1.0, kind="crash", target="node1.1"),
        FaultEvent(at=6.5, kind="restart", target="node1.1"),
    ], seed=1)
    res = run_combo(Topology(topology), Consistency(consistency), seed=1,
                    duration=6.0, quiesce=2.0, schedule=schedule, durable=True)
    assert res.ok and res.stats["failovers"] == 1 and res.stats["recoveries"] == 1
    return res.digest[:16], fired["timeouts"], fired["expired"]


@pytest.mark.parametrize("combo", list(FAULT_GOLDEN), ids=lambda c: "-".join(c))
def test_fault_soak_pins_fired_timers(combo, monkeypatch):
    assert fault_golden_run(*combo, monkeypatch) == FAULT_GOLDEN[combo]
