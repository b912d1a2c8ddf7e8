"""Unit tests for every datalet storage engine."""

import pytest

from repro.datalet import (
    BTreeEngine,
    HashTableEngine,
    LogEngine,
    LSMEngine,
    RedisEngine,
    SSDBEngine,
    make_engine,
)
from repro.errors import KeyNotFound

ALL_ENGINES = [HashTableEngine, BTreeEngine, LogEngine, LSMEngine, SSDBEngine, RedisEngine]
ORDERED_ENGINES = [BTreeEngine, LSMEngine, SSDBEngine]


@pytest.fixture(params=ALL_ENGINES, ids=lambda c: c.__name__)
def engine(request):
    return request.param()


# ---------------------------------------------------------------------------
# contract tests shared by all engines
# ---------------------------------------------------------------------------
def test_put_get_roundtrip(engine):
    engine.put("k", "v")
    assert engine.get("k") == "v"


def test_overwrite(engine):
    engine.put("k", "v1")
    engine.put("k", "v2")
    assert engine.get("k") == "v2"
    assert len(engine) == 1


def test_get_missing_raises(engine):
    with pytest.raises(KeyNotFound):
        engine.get("nope")


def test_delete(engine):
    engine.put("k", "v")
    engine.delete("k")
    with pytest.raises(KeyNotFound):
        engine.get("k")
    assert len(engine) == 0


def test_delete_missing_raises(engine):
    with pytest.raises(KeyNotFound):
        engine.delete("nope")


def test_reinsert_after_delete(engine):
    engine.put("k", "v1")
    engine.delete("k")
    engine.put("k", "v2")
    assert engine.get("k") == "v2"


def test_len_and_items(engine):
    pairs = {f"key{i:03d}": f"val{i}" for i in range(50)}
    for k, v in pairs.items():
        engine.put(k, v)
    assert len(engine) == 50
    assert dict(engine.items()) == pairs


def test_snapshot_restore_roundtrip(engine):
    for i in range(20):
        engine.put(f"k{i}", f"v{i}")
    snap = engine.snapshot()
    fresh = type(engine)()
    fresh.restore(snap)
    assert dict(fresh.items()) == dict(engine.items())


def test_contains(engine):
    engine.put("a", "1")
    assert engine.contains("a")
    assert not engine.contains("b")


def test_stats_reports_live_keys(engine):
    engine.put("a", "1")
    assert engine.stats()["live_keys"] == 1.0


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cls", ORDERED_ENGINES, ids=lambda c: c.__name__)
def test_scan_ordered_half_open(cls):
    e = cls()
    for i in range(100):
        e.put(f"k{i:03d}", str(i))
    result = e.scan("k010", "k020")
    assert [k for k, _ in result] == [f"k{i:03d}" for i in range(10, 20)]


@pytest.mark.parametrize("cls", ORDERED_ENGINES, ids=lambda c: c.__name__)
def test_scan_limit(cls):
    e = cls()
    for i in range(100):
        e.put(f"k{i:03d}", str(i))
    assert len(e.scan("k000", "k999", limit=7)) == 7


@pytest.mark.parametrize("cls", ORDERED_ENGINES, ids=lambda c: c.__name__)
def test_scan_excludes_deleted(cls):
    e = cls()
    for i in range(10):
        e.put(f"k{i}", str(i))
    e.delete("k5")
    keys = [k for k, _ in e.scan("k0", "k9~")]
    assert "k5" not in keys and len(keys) == 9


def test_lsm_scan_merges_tombstones_across_runs_with_limit():
    e = LSMEngine(memtable_limit=4, max_sstables=16)
    for i in range(12):                 # runs 1-3: k00..k11
        e.put(f"k{i:02d}", "old")
    for i in (1, 2, 5, 9):              # run 4: tombstones only
        e.delete(f"k{i:02d}")
    e.put("k03", "new")                 # run 5: values and a tombstone
    e.put("k04", "new")
    e.delete("k06")
    e.put("k07", "r5")
    e.delete("k08")                     # memtable tombstone
    e.put("k01", "back")                # resurrected above its tombstone
    assert e.stats()["sstables"] == 5 and e.stats()["memtable_keys"] == 2
    want = [("k00", "old"), ("k01", "back"), ("k03", "new"), ("k04", "new"),
            ("k07", "r5"), ("k10", "old"), ("k11", "old")]
    assert e.scan("k00", "k99") == want
    assert e.scan("k01", "k99", limit=4) == want[1:5]
    assert e.scan("k02", "k08", limit=2) == want[2:4]
    assert e.scan("k05", "k07") == []
    assert e.scan("k08", "k10") == []
    assert e.scan("k00", "k99", limit=0) == []


def test_hash_engines_reject_scan():
    for cls in (HashTableEngine, RedisEngine, LogEngine):
        with pytest.raises(NotImplementedError):
            cls().scan("a", "z")


# ---------------------------------------------------------------------------
# LSM internals
# ---------------------------------------------------------------------------
def test_lsm_flush_on_memtable_limit():
    e = LSMEngine(memtable_limit=10)
    for i in range(25):
        e.put(f"k{i:02d}", str(i))
    assert e.flushes >= 2
    assert len(e) == 25
    for i in range(25):
        assert e.get(f"k{i:02d}") == str(i)


def test_lsm_newest_version_wins_across_tables():
    e = LSMEngine(memtable_limit=4)
    for round_ in range(3):
        for i in range(4):
            e.put(f"k{i}", f"r{round_}")
    assert all(e.get(f"k{i}") == "r2" for i in range(4))
    assert len(e) == 4


def test_lsm_tombstone_shadows_older_table():
    e = LSMEngine(memtable_limit=2)
    e.put("a", "1")
    e.put("b", "2")  # flush -> table with a,b
    e.delete("a")    # tombstone in memtable
    with pytest.raises(KeyNotFound):
        e.get("a")
    assert len(e) == 1


def test_lsm_compaction_drops_tombstones():
    e = LSMEngine(memtable_limit=2, max_sstables=2)
    for i in range(8):
        e.put(f"k{i}", str(i))
    e.delete("k0")
    for i in range(8, 20):
        e.put(f"k{i}", str(i))
    e.flush()
    e.compact()
    assert e.compactions >= 1
    assert len(e._tables) <= 1
    with pytest.raises(KeyNotFound):
        e.get("k0")
    assert e.get("k19") == "19"


def test_lsm_invalid_params():
    with pytest.raises(ValueError):
        LSMEngine(memtable_limit=0)
    with pytest.raises(ValueError):
        LSMEngine(max_sstables=0)


# ---------------------------------------------------------------------------
# log engine internals
# ---------------------------------------------------------------------------
def test_log_compaction_triggers_on_garbage():
    e = LogEngine(gc_threshold=0.5, min_gc_records=10)
    for i in range(10):
        e.put("hot", str(i))  # 9 dead versions pile up
    assert e.compactions >= 1
    assert e.get("hot") == "9"
    assert e.garbage_ratio() <= 0.5


def test_log_manual_compact_preserves_data():
    e = LogEngine(min_gc_records=10**9)  # disable auto GC
    for i in range(100):
        e.put(f"k{i % 10}", str(i))
    before = dict(e.items())
    e.compact()
    assert dict(e.items()) == before
    assert e.garbage_ratio() == 0.0


def test_log_tombstones_counted_as_garbage():
    e = LogEngine(min_gc_records=10**9)
    e.put("a", "1")
    e.delete("a")
    assert len(e) == 0
    assert e.garbage_ratio() == 1.0


def test_log_invalid_threshold():
    with pytest.raises(ValueError):
        LogEngine(gc_threshold=0.0)


# ---------------------------------------------------------------------------
# B+-tree internals
# ---------------------------------------------------------------------------
def test_btree_splits_and_height_growth():
    e = BTreeEngine(order=4)
    for i in range(100):
        e.put(f"k{i:03d}", str(i))
    assert e.height > 1
    assert e.splits > 0
    e.check_invariants()


def test_btree_sorted_iteration():
    e = BTreeEngine(order=4)
    import random

    rng = random.Random(3)
    keys = [f"k{i:04d}" for i in range(500)]
    rng.shuffle(keys)
    for k in keys:
        e.put(k, k.upper())
    assert [k for k, _ in e.items()] == sorted(keys)
    e.check_invariants()


def test_btree_invalid_order():
    with pytest.raises(ValueError):
        BTreeEngine(order=2)


def test_btree_scan_empty_tree():
    assert BTreeEngine().scan("a", "z") == []


def test_btree_delete_keeps_invariants():
    e = BTreeEngine(order=4)
    for i in range(200):
        e.put(f"k{i:03d}", str(i))
    for i in range(0, 200, 2):
        e.delete(f"k{i:03d}")
    assert len(e) == 100
    e.check_invariants()
    assert [k for k, _ in e.items()] == [f"k{i:03d}" for i in range(1, 200, 2)]


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------
def test_make_engine_all_kinds():
    for kind in ("ht", "mt", "lsm", "log", "ssdb", "redis"):
        e = make_engine(kind)
        assert e.kind == kind
        e.put("k", "v")
        assert e.get("k") == "v"


def test_make_engine_unknown_kind():
    with pytest.raises(ValueError):
        make_engine("rocksdb")


def test_make_engine_kwargs_passthrough():
    e = make_engine("lsm", memtable_limit=7)
    assert e._memtable_limit == 7
