"""Tests for consistent hashing and range partitioning."""

import bisect

import pytest

from repro.cluster.routing import RingRouting
from repro.errors import ConfigError
from repro.hashing import HashRing, RangePartitioner, stable_hash
from repro.hashing import ring as ring_mod


def test_stable_hash_is_stable():
    assert stable_hash("key1") == stable_hash("key1")
    assert stable_hash("key1") != stable_hash("key2")


def test_ring_lookup_deterministic():
    ring = HashRing(["a", "b", "c"])
    assert all(ring.lookup(f"k{i}") == ring.lookup(f"k{i}") for i in range(100))


def test_ring_covers_all_members():
    ring = HashRing([f"s{i}" for i in range(8)])
    owners = {ring.lookup(f"key{i}") for i in range(5000)}
    assert owners == set(ring.members)


def test_ring_balance_reasonable():
    ring = HashRing([f"s{i}" for i in range(8)], vnodes=128)
    counts = {m: 0 for m in ring.members}
    for i in range(20000):
        counts[ring.lookup(f"key{i}")] += 1
    mean = 20000 / 8
    for c in counts.values():
        assert 0.5 * mean < c < 1.7 * mean


def test_ring_minimal_disruption_on_removal():
    ring = HashRing(["a", "b", "c", "d"])
    before = {f"k{i}": ring.lookup(f"k{i}") for i in range(2000)}
    ring.remove("d")
    moved = sum(
        1 for k, owner in before.items() if owner != "d" and ring.lookup(k) != owner
    )
    assert moved == 0  # only keys owned by the removed member move


def test_ring_add_remove_membership():
    ring = HashRing()
    ring.add("a")
    assert ring.members == ["a"]
    with pytest.raises(ConfigError):
        ring.add("a")
    ring.remove("a")
    with pytest.raises(ConfigError):
        ring.remove("a")
    with pytest.raises(ConfigError):
        ring.lookup("k")


def test_ring_lookup_n_distinct_preference_list():
    ring = HashRing(["a", "b", "c", "d"])
    prefs = ring.lookup_n("somekey", 3)
    assert len(prefs) == 3 and len(set(prefs)) == 3
    assert prefs[0] == ring.lookup("somekey")


def test_ring_lookup_n_too_many():
    ring = HashRing(["a"])
    with pytest.raises(ConfigError):
        ring.lookup_n("k", 2)


def test_ring_invalid_vnodes():
    with pytest.raises(ConfigError):
        HashRing(vnodes=0)


# ---------------------------------------------------------------------------
# membership diffs and owned-range properties (online resharding relies
# on these: clients patch their ring incrementally from a diff, and the
# migration census assumes only the moved slice changes owners)
# ---------------------------------------------------------------------------
def test_ring_diff_is_exact_membership_delta():
    a = HashRing(["s0", "s1", "s2"])
    b = HashRing(["s1", "s2", "s3", "s4"])
    assert a.diff(b) == {"added": ["s3", "s4"], "removed": ["s0"]}
    assert b.diff(a) == {"added": ["s0"], "removed": ["s3", "s4"]}
    assert a.diff(a) == {"added": [], "removed": []}


def test_ring_diff_applied_reproduces_ownership():
    a = HashRing(["s0", "s1", "s2"])
    b = HashRing(["s1", "s2", "s3"])
    d = a.diff(b)
    for sid in d["removed"]:
        a.remove(sid)
    for sid in d["added"]:
        a.add(sid)
    assert a.members == b.members
    # vnode placement is a pure function of the member name, so the
    # patched ring answers lookups identically to a fresh build
    assert all(a.lookup(f"k{i}") == b.lookup(f"k{i}") for i in range(2000))


def test_ring_add_moves_keys_only_to_new_member():
    """Owned-range property: growing the ring only moves keys *to* the
    newcomer — no key shuffles between surviving members — and the
    moved slice is roughly the newcomer's fair share."""
    ring = HashRing([f"s{i}" for i in range(4)])
    before = {f"k{i}": ring.lookup(f"k{i}") for i in range(4000)}
    ring.add("s4")
    moved = {k: ring.lookup(k) for k, owner in before.items()
             if ring.lookup(k) != owner}
    assert all(dst == "s4" for dst in moved.values())
    # fair share is 1/5 of the keyspace; allow generous slack for
    # vnode placement variance
    assert 0.05 * len(before) < len(moved) < 0.45 * len(before)


def test_ring_remove_then_readd_is_identity():
    ring = HashRing(["a", "b", "c", "d"])
    before = {f"k{i}": ring.lookup(f"k{i}") for i in range(2000)}
    ring.remove("b")
    ring.add("b")
    assert ring.members == ["a", "b", "c", "d"]
    assert all(ring.lookup(k) == owner for k, owner in before.items())


def test_ring_vnode_collision_skew_is_deterministic(monkeypatch):
    """When two vnodes hash to the same point, the loser skews one
    position — deterministically, so independently built rings still
    agree on every lookup."""
    import repro.hashing.ring as ring_mod

    def colliding_hash(key: str) -> int:
        # every vnode of every member lands on one of 4 points; keys
        # spread normally — forces the skew path on every add
        if "#" in key:
            member, i = key.split("#")
            return (int(i) % 4) * (1 << 60)
        return stable_hash(key)

    monkeypatch.setattr(ring_mod, "stable_hash", colliding_hash)
    r1 = ring_mod.HashRing(["a", "b", "c"], vnodes=8)
    r2 = ring_mod.HashRing(["a", "b", "c"], vnodes=8)
    # every vnode survives the collisions (losers skew, none dropped)
    # and the skew lands identically in independently built rings
    assert r1.members == r2.members == ["a", "b", "c"]
    assert sorted(r1._points) == sorted(r2._points)
    assert len(r1._points) == 3 * 8
    assert r1._owners == r2._owners
    keys = [f"k{i}" for i in range(500)]
    assert [r1.lookup(k) for k in keys] == [r2.lookup(k) for k in keys]


# ---------------------------------------------------------------------------
# range partitioner
# ---------------------------------------------------------------------------
def _owner(ring, key):
    """The ring's owner of ``key``, computed without its lookup memo."""
    points = sorted(ring._owners)
    i = bisect.bisect_right(points, stable_hash(key)) % len(points)
    return ring._owners[points[i]]


def test_ring_lookup_memo_forgets_on_add_and_remove():
    ring = HashRing(["a", "b", "c"])
    keys = [f"k{i}" for i in range(2000)]
    cached = {k: ring.lookup(k) for k in keys}  # every key now memoized
    ring.add("d")
    fresh = HashRing(["a", "b", "c", "d"])
    moved = [k for k in keys if fresh.lookup(k) != cached[k]]
    assert moved and all(ring.lookup(k) == fresh.lookup(k) == "d" for k in moved)
    ring.remove("a")
    fresh = HashRing(["b", "c", "d"])
    assert all(ring.lookup(k) == fresh.lookup(k) for k in keys)
    assert "a" not in {ring.lookup(k) for k in keys}


def test_ring_lookup_memo_is_shared_per_placement_only():
    one, two = HashRing(["a", "b"]), HashRing(["b", "a"])
    assert one._memo is two._memo
    two.add("c")
    assert one._memo is not two._memo
    # a lookup through one ring never answers for the other placement
    keys = [f"k{i}" for i in range(500)]
    assert [one.lookup(k) for k in keys] == [HashRing(["a", "b"]).lookup(k) for k in keys]
    assert [two.lookup(k) for k in keys] == [HashRing(["a", "b", "c"]).lookup(k) for k in keys]


def test_ring_lookup_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(ring_mod, "LOOKUP_MEMO_MAX", 64)
    ring = HashRing(["a", "b", "c"])
    for i in range(1000):
        key = f"k{i}"
        assert ring.lookup(key) == _owner(ring, key)
        assert len(ring._memo) <= 64


def test_ring_routing_memo_follows_a_reshard_window():
    """A key looked up (and memoized) before a reshard window opens is
    routed by the new ring inside the window and after it closes, and the
    window's old ring still names the old owner."""
    routing = RingRouting()
    routing.install({"gen": 0, "ids": ["s0", "s1"]}, "hash")
    keys = [f"k{i}" for i in range(2000)]
    before = {k: routing.lookup(k) for k in keys}
    opened = {"gen": 1, "ids": ["s0", "s1", "s2"],
              "reshard": {"gen": 1, "old": ["s0", "s1"], "new": ["s0", "s1", "s2"]}}
    routing.install(opened, "hash")
    after = HashRing(["s0", "s1", "s2"])
    moved = [k for k in keys if after.lookup(k) != before[k]]
    assert moved
    for k in keys:
        assert routing.lookup(k) == after.lookup(k)
        assert routing.old_owner(k) == (before[k] if k in moved else None)
    routing.install({"gen": 1, "ids": ["s0", "s1", "s2"]}, "hash")  # window closes
    assert all(routing.lookup(k) == after.lookup(k) for k in keys)
    assert all(routing.old_owner(k) is None for k in keys)
    routing.install({"gen": 2, "ids": ["s1", "s2"]}, "hash")  # s0 drains away
    assert "s0" not in {routing.lookup(k) for k in keys}


def test_range_lookup_boundaries():
    p = RangePartitioner(["s0", "s1", "s2"], ["g", "n"])
    assert p.lookup("a") == "s0"
    assert p.lookup("f") == "s0"
    assert p.lookup("g") == "s1"  # boundary key goes right
    assert p.lookup("m") == "s1"
    assert p.lookup("n") == "s2"
    assert p.lookup("z") == "s2"


def test_range_shard_bounds():
    p = RangePartitioner(["s0", "s1", "s2"], ["g", "n"])
    assert p.shard_bounds("s0") == ("", "g")
    assert p.shard_bounds("s1") == ("g", "n")
    lo, hi = p.shard_bounds("s2")
    assert lo == "n" and hi > "z"


def test_range_covering_clips_subranges():
    p = RangePartitioner(["s0", "s1", "s2"], ["g", "n"])
    cov = p.covering("e", "p")
    assert cov == {"s0": ("e", "g"), "s1": ("g", "n"), "s2": ("n", "p")}


def test_range_covering_single_shard():
    p = RangePartitioner(["s0", "s1"], ["m"])
    assert p.covering("a", "b") == {"s0": ("a", "b")}


def test_range_covering_empty_interval():
    p = RangePartitioner(["s0", "s1"], ["m"])
    assert p.covering("z", "a") == {}


def test_range_invalid_config():
    with pytest.raises(ConfigError):
        RangePartitioner([], [])
    with pytest.raises(ConfigError):
        RangePartitioner(["a", "b"], [])
    with pytest.raises(ConfigError):
        RangePartitioner(["a", "b", "c"], ["n", "g"])  # unsorted
    with pytest.raises(ConfigError):
        RangePartitioner(["a", "b", "c"], ["g", "g"])  # duplicate
    with pytest.raises(ConfigError):
        RangePartitioner(["a", "b"], ["m"]).shard_bounds("zz")


def test_uniform_alpha_splits():
    p = RangePartitioner.uniform_alpha(["s0", "s1", "s2", "s3"])
    owners = {p.lookup(c) for c in "abcdefghijklmnopqrstuvwxyz"}
    assert owners == {"s0", "s1", "s2", "s3"}


def test_uniform_alpha_too_many_shards():
    with pytest.raises(ConfigError):
        RangePartitioner.uniform_alpha([f"s{i}" for i in range(30)])
