"""Tests for cluster metadata types."""

import ast

import pytest

from repro.analysis.source import SourceIndex
from repro.core.types import ClusterMap, Consistency, Replica, ShardInfo, Topology
from repro.errors import ConfigError


def shard3(topology=Topology.MS, consistency=Consistency.STRONG):
    return ShardInfo(
        shard_id="s0",
        topology=topology,
        consistency=consistency,
        replicas=[
            Replica("c1", "d1", "h1", chain_pos=0),
            Replica("c2", "d2", "h2", chain_pos=1),
            Replica("c3", "d3", "h3", chain_pos=2),
        ],
    )


def test_head_tail_and_order():
    s = shard3()
    assert s.head.controlet == "c1"
    assert s.tail.controlet == "c3"
    assert s.controlets() == ["c1", "c2", "c3"]


def test_successor_chain():
    s = shard3()
    assert s.successor("c1").controlet == "c2"
    assert s.successor("c2").controlet == "c3"
    assert s.successor("c3") is None
    with pytest.raises(ConfigError):
        s.successor("nope")


def test_replica_of_and_remove():
    s = shard3()
    r = s.replica_of("c2")
    assert r.datalet == "d2"
    s.remove_replica("c2")
    assert s.controlets() == ["c1", "c3"]
    with pytest.raises(ConfigError):
        s.replica_of("c2")


def test_replicas_are_the_chain_and_only_two_edits_change_it():
    """Sorted once at construction; ``add_replica`` appends the new
    tail, ``remove_replica`` renumbers the rest (a dead head's successor
    becomes the head); ``ordered()`` is a copy."""
    s = ShardInfo("s0", Topology.MS, Consistency.STRONG, [
        Replica("c3", "d3", "h3", 2), Replica("c1", "d1", "h1", 0),
        Replica("c2", "d2", "h2", 1)])
    assert s.controlets() == ["c1", "c2", "c3"]
    s.remove_replica("c1")
    assert s.head.controlet == "c2"
    assert [r.chain_pos for r in s.replicas] == [0, 1]
    s.add_replica(Replica("c4", "d4", "h4", chain_pos=9))
    assert s.tail.controlet == "c4" and s.successor("c3").controlet == "c4"
    assert [r.chain_pos for r in s.replicas] == [0, 1, 2]
    chain = s.ordered()
    chain.pop()
    assert s.controlets() == ["c2", "c3", "c4"]


_LIST_EDITS = {"append", "extend", "insert", "remove", "pop", "clear", "sort"}


class _MembershipEdits(ast.NodeVisitor):
    """Lines that store a ``.chain_pos``, or store, edit in place or
    call a list-mutating method on a ``.replicas``, outside ``__init__``."""

    def __init__(self):
        self.lines = []

    def visit_FunctionDef(self, node):
        if node.name != "__init__":
            self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node):
        if node.attr in ("chain_pos", "replicas") and isinstance(node.ctx, (ast.Store, ast.Del)):
            self.lines.append(node.lineno)
        self.generic_visit(node)

    def visit_Subscript(self, node):
        if isinstance(node.ctx, (ast.Store, ast.Del)) and \
                isinstance(node.value, ast.Attribute) and node.value.attr == "replicas":
            self.lines.append(node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _LIST_EDITS and \
                isinstance(func.value, ast.Attribute) and func.value.attr == "replicas":
            self.lines.append(node.lineno)
        self.generic_visit(node)


def test_only_shard_info_edits_membership():
    """Chain order has one owner: outside ``core/types.py`` no module
    under ``src/repro`` renumbers a replica or edits a shard's replica
    list by hand, so every membership change goes through
    ``ShardInfo.add_replica`` / ``ShardInfo.remove_replica``."""
    index = SourceIndex.from_root(None)
    edits = {}
    for rel, module in index.modules.items():
        visitor = _MembershipEdits()
        visitor.visit(module.tree)
        if visitor.lines and rel != "core/types.py":
            edits[rel] = visitor.lines
    assert edits == {}


def test_string_coercion_of_enums():
    s = ShardInfo("s0", "aa", "eventual", [Replica("c", "d", "h")])
    assert s.topology is Topology.AA
    assert s.consistency is Consistency.EVENTUAL


def test_empty_shard_head_raises():
    s = ShardInfo("s0", Topology.MS, Consistency.STRONG, [])
    with pytest.raises(ConfigError):
        _ = s.head
    with pytest.raises(ConfigError):
        _ = s.tail


def test_shard_roundtrip_dict():
    s = shard3(Topology.AA, Consistency.EVENTUAL)
    s2 = ShardInfo.from_dict(s.to_dict())
    assert s2.to_dict() == s.to_dict()
    assert s2.head.controlet == "c1"


def test_cluster_map_roundtrip_and_epoch():
    cm = ClusterMap()
    cm.shards["s0"] = shard3()
    cm.bump()
    cm.bump()
    d = cm.to_dict()
    cm2 = ClusterMap.from_dict(d)
    assert cm2.epoch == 2
    assert cm2.shard("s0").tail.controlet == "c3"
    assert cm2.shard_ids() == ["s0"]


def test_cluster_map_unknown_shard():
    with pytest.raises(ConfigError):
        ClusterMap().shard("nope")
