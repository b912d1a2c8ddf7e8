"""Tests for the distributed lock manager."""

import pytest

from repro.dlm import LockManagerActor, LockTable
from repro.errors import RequestTimeout
from repro.net import SimCluster


# ---------------------------------------------------------------------------
# LockTable core
# ---------------------------------------------------------------------------
def test_write_lock_exclusive():
    t = LockTable()
    grants = []
    assert t.acquire("k", "a", "w", lambda: grants.append("a"))
    assert not t.acquire("k", "b", "w", lambda: grants.append("b"))
    assert grants == ["a"]
    t.release("k", "a")
    assert grants == ["a", "b"]


def test_readers_share():
    t = LockTable()
    grants = []
    assert t.acquire("k", "r1", "r", lambda: grants.append("r1"))
    assert t.acquire("k", "r2", "r", lambda: grants.append("r2"))
    assert grants == ["r1", "r2"]
    writer, readers = t.holders("k")
    assert writer is None and readers == {"r1", "r2"}


def test_writer_waits_for_all_readers():
    t = LockTable()
    grants = []
    t.acquire("k", "r1", "r", lambda: None)
    t.acquire("k", "r2", "r", lambda: None)
    t.acquire("k", "w", "w", lambda: grants.append("w"))
    t.release("k", "r1")
    assert grants == []
    t.release("k", "r2")
    assert grants == ["w"]


def test_queued_writer_blocks_later_readers():
    """FIFO fairness: readers arriving behind a queued writer wait."""
    t = LockTable()
    grants = []
    t.acquire("k", "r1", "r", lambda: None)
    t.acquire("k", "w", "w", lambda: grants.append("w"))
    t.acquire("k", "r2", "r", lambda: grants.append("r2"))
    assert grants == []
    t.release("k", "r1")
    assert grants == ["w"]  # writer first
    t.release("k", "w")
    assert grants == ["w", "r2"]


def test_batch_reader_wakeup():
    t = LockTable()
    grants = []
    t.acquire("k", "w", "w", lambda: None)
    t.acquire("k", "r1", "r", lambda: grants.append("r1"))
    t.acquire("k", "r2", "r", lambda: grants.append("r2"))
    t.release("k", "w")
    assert grants == ["r1", "r2"]  # both readers wake together


def test_release_without_hold_returns_false():
    t = LockTable()
    assert not t.release("k", "ghost")
    t.acquire("k", "a", "w", lambda: None)
    assert not t.release("k", "other")
    assert t.release("k", "a")


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        LockTable().acquire("k", "a", "x", lambda: None)


def test_lock_state_cleaned_up_when_free():
    t = LockTable()
    t.acquire("k", "a", "w", lambda: None)
    t.release("k", "a")
    assert t.holders("k") == (None, set())
    assert t.queue_len("k") == 0


def test_contention_counter():
    t = LockTable()
    t.acquire("k", "a", "w", lambda: None)
    t.acquire("k", "b", "w", lambda: None)
    assert t.contentions == 1 and t.grants == 1


# ---------------------------------------------------------------------------
# LockManagerActor over the simulated network
# ---------------------------------------------------------------------------
def make_dlm(lease=1.0):
    c = SimCluster()
    c.add_actor(LockManagerActor("dlm", lease=lease))
    p1 = c.add_port("p1")
    p2 = c.add_port("p2")
    c.start()
    return c, p1, p2


def test_actor_grant_and_unlock():
    c, p1, p2 = make_dlm()
    resp = c.sim.run_future(p1.request("dlm", "lock", {"key": "k", "mode": "w"}))
    assert resp.type == "granted"
    resp = c.sim.run_future(p1.request("dlm", "unlock", {"key": "k"}))
    assert resp.payload["released"] is True


def test_actor_contention_serialized():
    c, p1, p2 = make_dlm()
    f1 = p1.request("dlm", "lock", {"key": "k", "mode": "w"})
    c.sim.run_future(f1)
    f2 = p2.request("dlm", "lock", {"key": "k", "mode": "w"})
    c.sim.run_until(c.sim.now + 0.1)
    assert not f2.done  # second waits while p1 holds the lock
    c.sim.run_future(p1.request("dlm", "unlock", {"key": "k"}))
    c.sim.run_future(f2)  # now granted


def test_lease_expiry_frees_lock():
    c, p1, p2 = make_dlm(lease=0.5)
    c.sim.run_future(p1.request("dlm", "lock", {"key": "k", "mode": "w"}))
    # p1 "crashes" (never unlocks); p2 must eventually acquire via expiry
    f2 = p2.request("dlm", "lock", {"key": "k", "mode": "w"})
    c.sim.run_future(f2)
    assert c.sim.now >= 0.5
    dlm = c.actor("dlm")
    assert dlm.expired == 1


def test_unlock_cancels_lease_timer():
    c, p1, p2 = make_dlm(lease=0.5)
    c.sim.run_future(p1.request("dlm", "lock", {"key": "k", "mode": "w"}))
    c.sim.run_future(p1.request("dlm", "unlock", {"key": "k"}))
    c.sim.run_until(2.0)
    assert c.actor("dlm").expired == 0


def test_rpc_timeout_from_lock_manager_is_not_a_lease_expiry():
    """The lock manager's lease expiry and the fabric's RPC timeout are
    different handlers: a timed-out call made by the manager fails its
    own callback and leaves held leases alone."""
    c, p1, _p2 = make_dlm(lease=2.0)
    c.sim.run_future(p1.request("dlm", "lock", {"key": "k", "mode": "w"}))
    dlm = c.actor("dlm")
    seen = []
    dlm.call("ghost", "ping", {}, lambda resp, err: seen.append((resp, err)), timeout=0.5)
    c.sim.run_until(c.sim.now + 1.0)
    assert len(seen) == 1
    resp, err = seen[0]
    assert resp is None and isinstance(err, RequestTimeout)
    assert dlm.expired == 0 and dlm.table.holders("k")[0] == "p1"
    c.sim.run_until(c.sim.now + 2.0)
    assert dlm.expired == 1  # the lease still runs out on its own timer
