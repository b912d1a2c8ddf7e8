"""Tests for the Bloom filter and its integration into the LSM engine."""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import repro.datalet.bloom as bloom_module
import repro.datalet.lsm as lsm_module
from repro.datalet import LSMEngine
from repro.datalet.bloom import BloomFilter


def test_no_false_negatives_basic():
    bloom = BloomFilter(expected_items=100)
    keys = [f"k{i}" for i in range(100)]
    for k in keys:
        bloom.add(k)
    assert all(bloom.might_contain(k) for k in keys)


def test_false_positive_rate_near_target():
    n = 2000
    bloom = BloomFilter(expected_items=n, false_positive_rate=0.01)
    for i in range(n):
        bloom.add(f"member{i}")
    fp = sum(1 for i in range(10_000) if bloom.might_contain(f"absent{i}"))
    assert fp / 10_000 < 0.05  # target 1%, generous bound


def test_build_classmethod():
    bloom = BloomFilter.build(["a", "b", "c"])
    assert len(bloom) == 3
    assert bloom.might_contain("a")


def test_empty_build():
    bloom = BloomFilter.build([])
    assert not bloom.might_contain("anything") or True  # no crash; tiny table


def test_invalid_params():
    with pytest.raises(ValueError):
        BloomFilter(0)
    with pytest.raises(ValueError):
        BloomFilter(10, false_positive_rate=0.0)
    with pytest.raises(ValueError):
        BloomFilter(10, false_positive_rate=1.0)


@settings(max_examples=60, deadline=None)
@given(members=st.lists(st.text(max_size=8), unique=True, min_size=1, max_size=80))
def test_property_no_false_negatives(members):
    bloom = BloomFilter.build(members)
    assert all(bloom.might_contain(m) for m in members)


def test_lsm_reads_correct_with_bloom_filters():
    """Bloom integration must never change results, only skip work."""
    e = LSMEngine(memtable_limit=8, max_sstables=4)
    for i in range(100):
        e.put(f"k{i:03d}", str(i))
    for i in range(0, 100, 3):
        e.delete(f"k{i:03d}")
    for i in range(100):
        key = f"k{i:03d}"
        if i % 3 == 0:
            assert not e.contains(key)
        else:
            assert e.get(key) == str(i)
    assert not e.contains("never-inserted")


@settings(max_examples=60, deadline=None)
@given(keys=st.lists(st.text(max_size=8), max_size=80))
@example(keys=[])
@example(keys=["dup", "x", "dup", "dup"])
def test_property_build_sets_the_bits_of_per_key_add(keys):
    built = BloomFilter.build(keys)
    added = BloomFilter(max(1, len(keys)))
    for k in keys:
        added.add(k)
    assert (built.m, built.k, len(built)) == (added.m, added.k, len(added))
    assert built._bits == added._bits


def test_lsm_get_hashes_the_key_once(monkeypatch):
    e = LSMEngine(memtable_limit=2, max_sstables=16)
    for i in range(12):
        e.put(f"k{i:02d}", str(i))
    assert e.stats()["sstables"] == 6
    calls = []

    def counting(key):
        calls.append(key)
        return real(key)

    real = lsm_module.stable_hash
    monkeypatch.setattr(lsm_module, "stable_hash", counting)
    monkeypatch.setattr(bloom_module, "stable_hash", counting)
    for key in ("k00", "k11", "absent"):
        calls.clear()
        assert e.contains(key) == (key != "absent")
        assert calls == [key]
