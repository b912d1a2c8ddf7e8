"""WAL + DurableStore unit tests (repro.datalet.wal, repro.sim.durable).

The durability layer under the datalets: byte-level simulated disk with
fsync watermarks and seeded power-loss damage, and the seq-numbered,
checksummed, torn-tail-tolerant write-ahead log on top of it, with the
LSM's run files and manifest.
"""

import json
import random

import pytest

from repro.datalet import DataletActor, HashTableEngine, LSMEngine
from repro.datalet.wal import WriteAheadLog, _encode
from repro.errors import ConfigError, WalCorruption
from repro.sim.durable import DurableFile, DurableStore
from repro.sim.rng import RngRegistry


def make_store(policy="partial", seed=7):
    return DurableStore(
        "h0", RngRegistry(seed).stream("durable.h0"), unsynced_loss=policy
    )


def replayed_dict(store, name="d0", engine=None):
    wal = WriteAheadLog(store, name)
    engine = HashTableEngine() if engine is None else engine
    result = wal.replay(engine)
    return dict(engine.items()), result, wal


def checkpoint_if_due(wal, engine):
    """The datalet's production checkpoint path; True if it ran one."""
    before = wal.snapshots
    DataletActor("d0", engine, wal=wal)._maybe_compact()
    return wal.snapshots > before


# ---------------------------------------------------------------------------
# DurableFile / DurableStore byte model
# ---------------------------------------------------------------------------
def test_append_sync_watermark():
    f = make_store().file("a.log")
    f.append(b"one\n")
    assert (f.size, f.synced_size) == (4, 0)
    f.sync()
    assert f.synced_size == 4
    f.append(b"two\n")
    assert (f.size, f.synced_size) == (8, 4)


def test_crash_never_loses_synced_bytes():
    for policy in ("partial", "all", "none"):
        store = make_store(policy)
        f = store.file("a.log")
        f.append(b"synced\n")
        f.sync()
        f.append(b"dirty\n")
        store.on_crash(now=1.0)
        assert f.read()[:7] == b"synced\n"
        assert store.crashes == 1 and store.last_crash_at == 1.0


def test_crash_loss_policies():
    store = make_store("all")
    f = store.file("a.log")
    f.append(b"synced\n")
    f.sync()
    f.append(b"dirty\n")
    assert store.on_crash(now=1.0) == 6  # whole unsynced suffix gone
    assert f.read() == b"synced\n"

    store = make_store("none")
    f = store.file("a.log")
    f.append(b"dirty\n")
    assert store.on_crash(now=1.0) == 0  # battery-backed cache
    assert f.read() == b"dirty\n"

    store = make_store("partial")
    f = store.file("a.log")
    f.append(b"0123456789")
    lost = store.on_crash(now=1.0)
    assert 0 <= lost <= 10
    assert f.read() == b"0123456789"[: 10 - lost]  # prefix, torn tail


def test_replace_is_atomic_across_crash():
    store = make_store()
    f = store.file("a.snap")
    f.append(b"old")
    f.sync()
    f.replace(b"new-content")
    # crash before the sync: the staged temp file is simply gone
    store.on_crash(now=1.0)
    assert f.read() == b"old"
    # replace + sync commits
    f.replace(b"new-content")
    f.sync()
    assert f.read() == b"new-content"


def test_append_while_replace_staged_rejected():
    f = make_store().file("a")
    f.replace(b"x")
    with pytest.raises(ConfigError):
        f.append(b"y")


def test_store_validates_loss_policy_and_lists_sorted():
    with pytest.raises(ConfigError):
        make_store("most")
    store = make_store()
    store.file("b")
    store.file("a")
    assert store.files() == ["a", "b"]


# ---------------------------------------------------------------------------
# WriteAheadLog: write path
# ---------------------------------------------------------------------------
def test_append_replay_roundtrip():
    store = make_store()
    wal = WriteAheadLog(store, "d0")
    wal.append("put", "k1", "v1")
    wal.append("put", "k2", "v2")
    wal.append("del", "k1")
    wal.append("put", "k2", "v3")
    data, result, _ = replayed_dict(store)
    assert data == {"k2": "v3"}
    assert (result.records_applied, result.applied_seq) == (4, 4)
    assert result.torn_tail_dropped == 0


def test_sync_every_is_group_commit():
    wal = WriteAheadLog(make_store(), "d0", sync_every=3)
    assert wal.append("put", "a", "1") == 1
    assert wal.durable_seq == 0  # page cache only
    wal.append("put", "b", "2")
    assert wal.durable_seq == 0
    wal.append("put", "c", "3")
    assert wal.durable_seq == 3  # third append crossed the group size
    assert wal.syncs == 1


def test_unsynced_tail_lost_on_crash():
    store = make_store("all")
    wal = WriteAheadLog(store, "d0", sync_every=100)
    wal.append("put", "a", "1")
    wal.sync()
    wal.append("put", "b", "2")  # never synced
    store.on_crash(now=1.0)
    data, result, reopened = replayed_dict(store)
    assert data == {"a": "1"}
    assert result.applied_seq == 1
    # a reopened WAL continues the surviving sequence
    assert reopened.seq == 1 and reopened.durable_seq == 1


def test_torn_tail_is_dropped_not_fatal():
    store = make_store()
    wal = WriteAheadLog(store, "d0")
    wal.append("put", "a", "1")
    # an interrupted append: garbage bytes after the last valid record
    store.file("d0.log").append(b'{"s":2,"o":"put","k":"b"')
    data, result, _ = replayed_dict(store)
    assert data == {"a": "1"}
    assert result.torn_tail_dropped == 1


def test_midfile_damage_raises_wal_corruption():
    store = make_store()
    log = store.file("d0.log")
    log.append(b"garbage line\n")  # damaged record *followed by* a valid one
    log.append(_encode({"s": 2, "o": "put", "k": "b", "v": "2"}))
    with pytest.raises(WalCorruption):
        replayed_dict(store)


def test_sequence_regression_raises_wal_corruption():
    store = make_store()
    log = store.file("d0.log")
    log.append(_encode({"s": 5, "o": "put", "k": "a", "v": "1"}))
    log.append(_encode({"s": 3, "o": "put", "k": "b", "v": "2"}))
    with pytest.raises(WalCorruption):
        replayed_dict(store)


def test_checksum_flip_detected():
    store = make_store()
    wal = WriteAheadLog(store, "d0")
    wal.append("put", "a", "1")
    wal.append("put", "b", "2")
    f = store.file("d0.log")
    raw = bytearray(f.read())
    raw[2] ^= 0xFF  # flip a byte in the first record's body
    f._data = raw
    f._synced = len(raw)
    with pytest.raises(WalCorruption):  # not the tail -> media corruption
        replayed_dict(store)


# ---------------------------------------------------------------------------
# WriteAheadLog: snapshots & compaction
# ---------------------------------------------------------------------------
def test_snapshot_truncates_log_and_replays():
    store = make_store()
    wal = WriteAheadLog(store, "d0", snapshot_every=4)
    engine = HashTableEngine()
    for i in range(4):
        wal.append("put", f"k{i}", str(i))
        engine.put(f"k{i}", str(i))
    assert checkpoint_if_due(wal, engine)
    assert store.file("d0.log").size == 0  # log truncated
    wal.append("put", "k9", "9")  # post-snapshot record
    data, result, _ = replayed_dict(store)
    assert data == {"k0": "0", "k1": "1", "k2": "2", "k3": "3", "k9": "9"}
    assert result.snapshot_seq == 4 and result.records_applied == 1
    assert result.restored_keys == 4


def test_crash_between_snapshot_commit_and_truncate():
    """Records <= snapshot seq surviving in the log replay idempotently
    (skipped by sequence number)."""
    store = make_store("none")
    wal = WriteAheadLog(store, "d0")
    wal.append("put", "a", "old")
    wal.append("put", "a", "new")
    # snapshot committed but truncate lost: rebuild that disk state
    store.file("d0.snap").replace(_encode({"s": 2, "data": {"a": "new"}}))
    store.file("d0.snap").sync()
    data, result, _ = replayed_dict(store)
    assert data == {"a": "new"}
    assert result.records_applied == 0  # both records skipped by seq


def test_checkpoint_below_threshold_is_noop():
    wal = WriteAheadLog(make_store(), "d0", snapshot_every=100)
    engine = HashTableEngine()
    wal.append("put", "a", "1")
    engine.put("a", "1")
    assert not checkpoint_if_due(wal, engine)
    assert wal.snapshots == 0


def test_stats_exposed():
    wal = WriteAheadLog(make_store(), "d0")
    wal.append("put", "a", "1")
    s = wal.stats()
    assert s["wal_seq"] == 1.0 and s["wal_durable_seq"] == 1.0
    assert s["wal_appends"] == 1.0 and s["wal_log_bytes"] > 0


def test_ht_checkpoint_is_the_plain_snapshot_record():
    """An engine without runs writes exactly ``{"data": ..., "s": ...}``
    and no run files: the bytes the restart fingerprints hash."""
    store = make_store()
    wal = WriteAheadLog(store, "d0", snapshot_every=2)
    engine = HashTableEngine()
    for key in ("b", "a"):
        wal.append("put", key, key.upper())
        engine.put(key, key.upper())
    assert checkpoint_if_due(wal, engine)
    assert store.file("d0.snap").read() == _encode(
        {"s": 2, "data": {"a": "A", "b": "B"}})
    assert store.files() == ["d0.log", "d0.snap"]


# ---------------------------------------------------------------------------
# the LSM checkpoint: run files + manifest
# ---------------------------------------------------------------------------
def small_lsm():
    return LSMEngine(memtable_limit=4, max_sstables=2)


class Feed:
    """Feeds mutations through the datalet's path (log, apply,
    checkpoint if due) and remembers the model state after every seq."""

    def __init__(self, store, sync_every=1, seed=3):
        self.store = store
        self.wal = WriteAheadLog(store, "d0", sync_every=sync_every)
        self.engine = small_lsm()
        self.states = {0: {}}
        self.model = {}
        self.rng = random.Random(seed)

    def restart(self):
        """Reopen after a crash: replay, then continue the sequence."""
        self.wal = WriteAheadLog(self.store, "d0", sync_every=self.wal.sync_every)
        self.engine = small_lsm()
        result = self.wal.replay(self.engine)
        self.model = dict(self.states[result.applied_seq])
        self.states = {s: d for s, d in self.states.items() if s <= result.applied_seq}
        return result

    def step(self):
        live = sorted(self.model)
        if live and self.rng.random() < 0.3:
            key, op, value = self.rng.choice(live), "del", None
        else:
            key, op, value = f"k{self.rng.randrange(12):02d}", "put", str(self.rng.random())
        seq = self.wal.append(op, key, value)
        if op == "put":
            self.engine.put(key, value)
            self.model[key] = value
        else:
            self.engine.delete(key)
            del self.model[key]
        self.states[seq] = dict(self.model)
        checkpoint_if_due(self.wal, self.engine)


def run_files(store):
    return [f for f in store.files() if ".run" in f]


def record_run_writes(monkeypatch):
    """Names of the run files written, in order, one entry per write."""
    written = []
    original = DurableFile.replace

    def replace(self, content):
        if ".run" in self.name:
            written.append(self.name)
        original(self, content)

    monkeypatch.setattr(DurableFile, "replace", replace)
    return written


def test_lsm_checkpoint_writes_each_run_once_and_replays(monkeypatch):
    written = record_run_writes(monkeypatch)
    store = make_store()
    d = Feed(store)
    cut = set()
    for _ in range(200):
        d.step()
        cut.add(d.engine.newest_run)
        # the log holds only what the memtable holds: one memtable bound
        logged = {json.loads(line.rsplit(b"|", 1)[0])["k"]
                  for line in store.file("d0.log").read().splitlines()}
        assert logged == set(d.engine.checkpoint()[1])
    assert d.engine.compactions >= 3
    assert len(written) == len(set(written))  # each run written once
    assert len(written) == len(cut - {0})
    # superseded runs are gone: the disk holds exactly the engine's runs
    assert len(run_files(store)) == len(d.engine.checkpoint()[0])
    engine = small_lsm()
    data, result, _ = replayed_dict(store, engine=engine)
    assert data == d.model == dict(d.engine.items())
    assert result.snapshot_seq > 0


def test_lsm_tombstones_in_runs_shadow_older_runs():
    store = make_store()
    wal = WriteAheadLog(store, "d0")
    engine = LSMEngine(memtable_limit=2, max_sstables=8)
    ops = [("put", "a", "1"), ("put", "b", "2"),   # run 1: a, b
           ("del", "a", None), ("put", "c", "3"),  # run 2: a=tombstone, c
           ("del", "b", None)]                     # memtable: b=tombstone
    for op, key, value in ops:
        wal.append(op, key, value)
        if op == "put":
            engine.put(key, value)
        else:
            engine.delete(key)
        checkpoint_if_due(wal, engine)
    assert len(run_files(store)) == 2
    data, _, _ = replayed_dict(store, engine=small_lsm())
    assert data == {"c": "3"} == dict(engine.items())


def test_damaged_named_run_is_corruption_not_a_torn_tail():
    store = make_store()
    d = Feed(store)
    for _ in range(20):
        d.step()
    f = store.file(run_files(store)[0])
    raw = bytearray(f.read())
    raw[3] ^= 0xFF  # media damage under a synced run
    f.replace(bytes(raw))
    f.sync()
    with pytest.raises(WalCorruption):
        replayed_dict(store, engine=small_lsm())


class PowerLoss(Exception):
    pass


#: where a checkpoint dies: (class, method, file-name test)
CRASH_POINTS = {
    "run-written": (DurableFile, "sync", lambda f: ".run" in f.name and f._staged is not None),
    "run-synced": (DurableFile, "sync", lambda f: f.name.endswith(".snap")),
    "manifest-synced": (DurableFile, "replace", lambda f: f.name.endswith(".log")),
    "log-truncated": (DurableStore, "remove", lambda store: True),
}


def arm(monkeypatch, feed, point, after=2):
    """Make the first checkpoint after ``after`` committed ones die at
    ``point``; returns a list that records the crash."""
    cls, method, hit = CRASH_POINTS[point]
    original = getattr(cls, method)
    fired = []

    def crashing(self, *args):
        if not fired and feed.wal.snapshots >= after and hit(self):
            fired.append(point)
            raise PowerLoss(point)
        return original(self, *args)

    monkeypatch.setattr(cls, method, crashing)
    return fired


def run_until_crash(feed, limit=400):
    """Step until the armed crash fires; returns the seq the WAL had
    promised durable at that moment."""
    for _ in range(limit):
        try:
            feed.step()
        except PowerLoss:
            return feed.wal.durable_seq
    raise AssertionError("the crash point was never reached")


@pytest.mark.parametrize("point", sorted(CRASH_POINTS))
@pytest.mark.parametrize("sync_every", [1, 3])
def test_lsm_checkpoint_crash_matrix(monkeypatch, point, sync_every):
    store = make_store("partial")
    d = Feed(store, sync_every=sync_every)
    fired = arm(monkeypatch, d, point)
    floor = run_until_crash(d)
    assert fired == [point]
    store.on_crash(now=1.0)
    monkeypatch.undo()
    result = d.restart()
    # synced records over the committed manifest, never less
    assert result.applied_seq >= floor
    assert dict(d.engine.items()) == d.states[result.applied_seq]


def test_run_file_names_never_reused_across_restarts(monkeypatch):
    written = record_run_writes(monkeypatch)
    store = make_store("partial")
    d = Feed(store, sync_every=2)
    for point in ("run-written", "run-synced", "log-truncated"):
        with monkeypatch.context() as m:
            fired = arm(m, d, point, after=1)
            run_until_crash(d)
        assert fired == [point]
        store.on_crash(now=1.0)
        d.restart()
        assert dict(d.engine.items()) == d.model
    for _ in range(40):  # a fresh engine's runs restart at 1
        d.step()
    assert len(written) == len(set(written)), written
    data, _, _ = replayed_dict(store, engine=small_lsm())
    assert data == d.model
