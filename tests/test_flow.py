"""Tests for the flow-control static passes and the Pump primitive.

The four passes (pump-liveness, backpressure, retry-idempotency,
config-epoch fencing) walk per-handler control-flow paths with RPC
callbacks and timer continuations inlined (``repro.analysis.cfg``).
The acceptance bar mirrors the commit-point analyzer's: the real tree
analyzes clean (including the cluster membership/migration layer), and
the three seeded defects in ``repro.analysis.flowdefects`` are each
caught by the exact rule they plant — through inherited production
machinery, not toy snippets.
"""

import re
from pathlib import Path

from repro.analysis import package_root
from repro.analysis.cfg import walk_method
from repro.analysis.commitpoints import Waiver
from repro.analysis.flow import (
    FLOW_INJECTION_SOURCES,
    FLOW_RULES,
    analyze_flow_sources,
    analyze_flow_tree,
)
from repro.analysis.source import SourceIndex
from repro.core.controlet import Pump


def _read(rel: str):
    p = package_root() / rel
    return (rel, p.read_text())


def _by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


def _loud(findings, *rules):
    """Sorted ``(rule, path, class)`` of the unsuppressed findings (of
    ``rules``, when given); the message opens with the class name."""
    return sorted((f.rule, f.path, re.match(r"\w+", f.message).group())
                  for f in findings if not f.suppressed
                  and (not rules or f.rule in rules))


#: every finding the seeded flow defects must trip, and nothing else.
_DEFECTS = "analysis/flowdefects.py"
SEEDED_FLOW_FINDINGS = [
    ("pump-leak", _DEFECTS, "LeakyPumpMSEventualControlet"),
    ("retry-no-dedup", _DEFECTS, "UncappedRequeueMSStrongControlet"),
    ("ring-epoch", _DEFECTS, "StaleEpochDualRouteControlet"),
    ("ring-epoch", _DEFECTS, "StaleEpochDualRouteControlet"),
    ("unbounded-buffer", _DEFECTS, "UncappedRequeueMSStrongControlet"),
]


# ---------------------------------------------------------------------------
# Pump runtime semantics (the shape the static passes certify)
# ---------------------------------------------------------------------------
def test_pump_keeps_one_in_flight():
    issued = []
    dones = []

    def issue(item, done):
        issued.append(item)
        dones.append(done)

    pump = Pump(issue)
    pump.push("a")
    pump.push("b")
    pump.push("c")
    # only the head is in flight; the rest queue behind the busy flag
    assert issued == ["a"]
    assert pump.busy and len(pump) == 2
    dones[0]()  # completion releases the flag and re-enters the drain
    assert issued == ["a", "b"]
    dones[1]()
    dones[2]()
    assert issued == ["a", "b", "c"]
    assert not pump.busy and len(pump) == 0


def test_pump_requeue_front_keeps_fifo_under_retry():
    issued = []
    dones = []

    def issue(item, done):
        issued.append(item)
        dones.append(done)

    pump = Pump(issue)
    for item in ("x", "y", "z"):
        pump.push(item)
    # "x" failed: put it back at the head so younger items can't overtake
    pump.requeue_front(["x"])
    dones[0]()
    assert issued == ["x", "x"]
    dones[1]()
    assert issued == ["x", "x", "y"]


def test_pump_double_kick_is_harmless():
    issued = []

    def issue(item, done):
        issued.append(item)

    pump = Pump(issue)
    pump.push("a")
    pump.kick()
    pump.kick()
    assert issued == ["a"]  # busy flag rejects reentry, no double issue


def test_capped_pump_hands_out_fifo_batches():
    issued = []
    dones = []

    def issue(batch, done):
        issued.append(batch)
        dones.append(done)

    pump = Pump(issue, cap=3)
    for i in range(8):
        pump.push(i)
    # the first push found the pump idle; the rest coalesce behind it
    assert issued == [[0]]
    dones[0]()
    assert issued == [[0], [1, 2, 3]]  # at most cap items, oldest first
    dones[1]()
    dones[2]()
    assert issued == [[0], [1, 2, 3], [4, 5, 6], [7]]
    dones[3]()
    assert not pump.busy and len(pump) == 0


def test_capped_pump_requeue_front_keeps_the_batch_in_place():
    issued = []
    dones = []

    def issue(batch, done):
        issued.append(batch)
        dones.append(done)

    pump = Pump(issue, cap=2)
    for item in "abcde":
        pump.push(item)
    dones[0]()
    assert issued[-1] == ["b", "c"]
    # the frame failed: it goes back ahead of the younger d, e
    pump.requeue_front(issued[-1])
    dones[1]()
    assert issued[-1] == ["b", "c"]
    dones[2]()
    assert issued[-1] == ["d", "e"]


def test_pump_with_synchronous_issue_drains_and_goes_idle():
    """The chain-tail case: ``issue`` completes its batch on the spot
    and calls ``done()`` before returning."""
    issued = []

    def issue(batch, done):
        issued.append(batch)
        done()

    pump = Pump(issue, cap=2)
    pump.queue.extend(range(5))
    pump.kick()
    assert issued == [[0, 1], [2, 3], [4]]
    assert not pump.busy and len(pump) == 0
    pump.push(5)  # and it is still usable afterwards
    assert issued[-1] == [5] and not pump.busy


def test_cap_one_is_the_uncapped_pump_item_for_item():
    def run(cap):
        issued, dones = [], []

        def issue(item, done):
            issued.append(item)
            dones.append(done)

        pump = Pump(issue, cap=cap)
        for item in "xyz":
            pump.push(item)
        pump.requeue_front(["x"])
        while dones:
            dones.pop(0)()
        return issued

    assert run(None) == ["x", "x", "y", "z"]
    assert run(1) == [[item] for item in run(None)]


def test_no_hand_rolled_busy_token_in_core():
    """Every production drain loop is a ``Pump``: the flow walker finds
    no busy-token acquisition in ``src/repro/core`` outside it, so a
    hand-rolled pump cannot come back unnoticed.  (The seeded
    ``LeakyPump...`` defect keeps the busy-token pass itself exercised.)
    """
    table = SourceIndex.from_root(None, "core/")
    acquirers = set()
    for cls, node in table.classes.items():
        for funcdef in node.methods.values():
            paths, _pumps = walk_method(table, cls, funcdef)
            if any(s.kind == "flag-set" and "busy" in s.detail
                   for p in paths for s in p.steps):
                acquirers.add(cls)
    assert acquirers == {"Pump"}


_WALK_SRC = '''\
class Base:
    def datalet_call(self, type, payload, callback=None):
        self.send("d", type)

class Node(Base):
    def datalet_call(self, type, payload, callback=None):
        self.send("d", "rewritten")

    def handler(self, req, items):
        try:
            self.send("x", "body")
        except KeyError:
            self.send("x", "handler")
        for i in items:
            if i:
                continue
            self.send("x", "loop")
        self.send("x", "after")
        if self.wal is None:
            return
        req.arm(2, then=lambda err: self.send("x", "join"))
        self.set_timer(1, lambda: self.send("x", "timer"))
        self.datalet_call("put", {})
'''


def test_walker_semantics_the_path_passes_share():
    """One walk serves flow and commit points: ``try`` forks body and
    body+handler, ``continue`` resumes after the loop, each arm of a
    ``self.X is None`` test records what it assumes, timer and join
    continuations are deferred rather than spliced, and an overridden
    emitting method is inlined as a helper."""
    table = SourceIndex([("core/node.py", _WALK_SRC)])
    paths, _pumps = walk_method(table, "Node", table.methods("Node")["handler"])
    shapes = {tuple(f"{s.kind}:{s.detail}" for s in p.steps) for p in paths}
    assert ("emit:send:body", "emit:send:handler") in {sh[:2] for sh in shapes}
    assert ("emit:send:body", "emit:send:loop") in {sh[:2] for sh in shapes}
    skipped = [sh for sh in shapes if "skip:continue" in sh]
    assert skipped and all("emit:send:loop" not in sh
                           and "emit:send:after" in sh for sh in skipped)
    assert {sh[sh.index("emit:send:after") + 1] for sh in shapes} == {
        "assume:wal is None", "assume:wal is not None"}
    full = [sh for sh in shapes if "assume:wal is not None" in sh]
    assert full and all(sh[-4:] == ("defer:arm", "defer:set_timer",
                                     "enter:datalet_call", "emit:send:rewritten")
                        for sh in full)
    deferred = [s.closure for p in paths for s in p.steps if s.kind == "defer"]
    assert deferred and all(c is not None for c in deferred)


# ---------------------------------------------------------------------------
# the real tree is clean
# ---------------------------------------------------------------------------
def test_tree_analyzes_clean():
    """Acceptance criterion: all four flow passes run clean over the
    repo — with zero waivers and zero pragmas spent on them."""
    findings = analyze_flow_tree()
    loud = [f for f in findings if not f.suppressed]
    assert not loud, "\n".join(f.format() for f in loud)


# ---------------------------------------------------------------------------
# seeded defects: each caught by the exact rule it plants
# ---------------------------------------------------------------------------
def test_seeded_leaky_pump_caught():
    findings = analyze_flow_sources(
        [_read(rel) for rel in FLOW_INJECTION_SOURCES])
    leaks = [f for f in _by_rule(findings, "pump-leak")
             if f.path.endswith("flowdefects.py") and not f.suppressed]
    assert len(leaks) == 1, "\n".join(f.format() for f in findings)
    assert _loud(findings, "pump-leak") == SEEDED_FLOW_FINDINGS[:1]
    # anchored at the acquisition the error arm never releases
    assert "_replay_busy" in leaks[0].message
    assert "_pump_replays" in leaks[0].message


def test_seeded_uncapped_requeue_caught():
    findings = analyze_flow_sources(
        [_read(rel) for rel in FLOW_INJECTION_SOURCES])
    in_defects = [f for f in findings
                  if f.path.endswith("flowdefects.py") and not f.suppressed]
    rules = {f.rule for f in in_defects}
    # the stash is both undrained and rid-stripped: two distinct rules
    assert "unbounded-buffer" in rules, in_defects
    assert "retry-no-dedup" in rules, in_defects
    stash_line = {f.line for f in in_defects
                  if f.rule in ("unbounded-buffer", "retry-no-dedup")}
    assert len(stash_line) == 1  # both anchor at the stash append
    assert _loud(findings, "unbounded-buffer", "retry-no-dedup") == [
        SEEDED_FLOW_FINDINGS[1], SEEDED_FLOW_FINDINGS[4]]


def test_seeded_stale_epoch_dual_route_caught():
    findings = analyze_flow_sources(
        [_read(rel) for rel in FLOW_INJECTION_SOURCES])
    hits = [f for f in _by_rule(findings, "ring-epoch")
            if f.path.endswith("flowdefects.py") and not f.suppressed]
    # the defect is loud twice over: the handler bypasses the
    # _install_shard fence, and it installs the routing block into the
    # gate (self._gate.install) outside the fenced installers
    assert len(hits) == 2, "\n".join(f.format() for f in findings)
    msgs = "\n".join(f.message for f in hits)
    assert "does not route the new ring through _install_shard" in msgs
    assert "(self._gate) assigned or installed outside" in msgs
    assert all("StaleEpochDualRoute" in f.message for f in hits)
    assert _loud(findings, "ring-epoch") == SEEDED_FLOW_FINDINGS[2:4]


def test_healthy_ancestry_stays_unflagged_alongside_defects():
    """The defect classes subclass real controlets; analyzing them
    together must not smear findings onto the healthy parents."""
    findings = analyze_flow_sources(
        [_read(rel) for rel in FLOW_INJECTION_SOURCES])
    loud = [f for f in findings if not f.suppressed]
    assert loud, "seeded defects vanished"
    assert all(f.path.endswith("flowdefects.py") for f in loud), (
        "\n".join(f.format() for f in loud))
    assert _loud(findings) == SEEDED_FLOW_FINDINGS


# ---------------------------------------------------------------------------
# synthetic sources: rule-by-rule behavior
# ---------------------------------------------------------------------------
_EPOCH_BAD = '''\
class RingControlet:
    def __init__(self):
        self.shard = None
        self.config_epoch = 0

    def _on_config_update(self, msg):
        # BUG: installs whatever arrives, stale epochs included
        self.shard = msg.payload["shard"]
'''

_EPOCH_GOOD = '''\
class RingControlet:
    def __init__(self):
        self.shard = None
        self.config_epoch = 0

    def _install_shard(self, shard, epoch):
        if epoch <= self.config_epoch:
            return
        self.config_epoch = epoch
        self.shard = shard

    def _on_config_update(self, msg):
        self._install_shard(msg.payload["shard"], msg.payload["epoch"])
'''


def test_epoch_rule_flags_unfenced_ring_mutation():
    findings = analyze_flow_sources([("bad.py", _EPOCH_BAD)])
    hits = [f for f in _by_rule(findings, "ring-epoch") if not f.suppressed]
    assert hits, "\n".join(f.format() for f in findings)


def test_epoch_rule_accepts_fenced_install():
    findings = analyze_flow_sources([("good.py", _EPOCH_GOOD)])
    assert not [f for f in _by_rule(findings, "ring-epoch")
                if not f.suppressed]


_VIEW_BAD = '''\
class ClusterView:
    def __init__(self, cmap):
        self.map = cmap

    def install(self, state):
        # BUG: adopts any snapshot, including a lagging standby's
        self.map = state["map"]
        return True
'''

_VIEW_GOOD = '''\
class ClusterView:
    def __init__(self, cmap):
        self.map = cmap

    def install(self, state):
        if state["epoch"] < self.map.epoch:
            return False
        self.map = state["map"]
        return True
'''


def test_epoch_rule_requires_view_install_fence():
    findings = analyze_flow_sources([("view.py", _VIEW_BAD)])
    hits = [f for f in _by_rule(findings, "ring-epoch") if not f.suppressed]
    assert hits, "\n".join(f.format() for f in findings)
    assert "install" in hits[0].message


def test_epoch_rule_accepts_fenced_view_install():
    findings = analyze_flow_sources([("view.py", _VIEW_GOOD)])
    assert not [f for f in _by_rule(findings, "ring-epoch")
                if not f.suppressed]


_DROPPED_DONE = '''\
from repro.core.controlet import Pump

class ShipControlet:
    def __init__(self):
        self._frames = Pump(self._issue_frame)

    def _issue_frame(self, frame, done):
        def acked(resp, err):
            if err is None:
                done()
            # BUG: timeout arm drops done() -- the pump wedges

        self.call("peer", "replicate", frame, callback=acked)
'''


def test_pump_issue_dropping_done_is_flagged():
    findings = analyze_flow_sources([("ship.py", _DROPPED_DONE)])
    hits = [f for f in _by_rule(findings, "pump-leak") if not f.suppressed]
    assert hits, "\n".join(f.format() for f in findings)
    assert "done()" in hits[0].message


_FIRE_AND_FORGET = '''\
class FanoutControlet:
    def __init__(self):
        self.peers = []

    def _flush(self, batch):
        for peer in self.peers:
            self.send(peer, "replicate", {"ops": batch})
'''


def test_fire_and_forget_replication_is_flagged():
    findings = analyze_flow_sources([("fanout.py", _FIRE_AND_FORGET)])
    hits = [f for f in _by_rule(findings, "unthrottled-replication")
            if not f.suppressed]
    assert [(f.path, f.line) for f in hits] == [("fanout.py", 7)], (
        "\n".join(f.format() for f in findings))
    assert "FanoutControlet._flush" in hits[0].message
    assert "'replicate'" in hits[0].message


_RETRY = '''\
class RetryControlet:
    def __init__(self):
        self._q = []
{gate}
    def _enqueue(self, entry):
        self._q.append(entry)

    def _forward(self, req):
        entry = {{"key": req.key}}
{attach}        self._enqueue(entry)

    def _drain(self):
        batch, self._q = self._q, []
        return batch

    def _retry(self, batch):
        self._q[:0] = batch
'''


def _retry_src(gate: bool, attach: bool) -> str:
    return _RETRY.format(
        gate="        self._rid_done = {}\n" if gate else "",
        attach='        entry["rid"] = req.rid\n' if attach else "")


def _retry_hits(src):
    findings = analyze_flow_sources([("retry.py", src)])
    return [f for f in _by_rule(findings, "retry-no-dedup") if not f.suppressed]


def test_retry_requeue_without_dedup_gate_is_flagged():
    hits = _retry_hits(_retry_src(gate=False, attach=True))
    assert len(hits) == 1, hits
    assert "no dedup gate" in hits[0].message
    assert "self._q" in hits[0].message


def test_retry_requeue_of_rid_less_entries_is_flagged():
    hits = _retry_hits(_retry_src(gate=True, attach=False))
    assert len(hits) == 1, hits
    assert "never attach a rid" in hits[0].message


def test_retry_requeue_with_gate_and_caller_attached_rid_is_clean():
    # the rid is attached one call up (_forward), not in the appending
    # method itself: the one level of caller indirection counts
    assert _retry_hits(_retry_src(gate=True, attach=True)) == []


_INSTALL_NO_EPOCH = '''\
class RingControlet:
    def __init__(self):
        self.shard = None
        self.config_epoch = 0

    def _install_shard(self, shard, epoch):
        self.config_epoch = epoch
        self.shard = shard

    def _on_config_update(self, msg):
        self._install_shard(msg.payload["shard"], msg.payload["epoch"])
'''


def test_install_shard_override_without_epoch_compare_is_flagged():
    findings = analyze_flow_sources([("ring.py", _INSTALL_NO_EPOCH)])
    hits = [f for f in _by_rule(findings, "ring-epoch") if not f.suppressed]
    assert [(f.line, f.message.split(":")[0]) for f in hits] == [
        (6, "RingControlet._install_shard")], (
        "\n".join(f.format() for f in findings))
    assert "config-epoch comparison" in hits[0].message


# ---------------------------------------------------------------------------
# suppression: pragmas and waivers on flow findings
# ---------------------------------------------------------------------------
def test_pragma_suppresses_flow_finding():
    # the bad source trips two findings (the unfenced mutation and the
    # _install_shard-bypassing override); a pragma above each line
    # silences both
    src = _EPOCH_BAD.replace(
        "    def _on_config_update(self, msg):",
        "    # lint: allow[ring-epoch]\n"
        "    def _on_config_update(self, msg):").replace(
        "        self.shard = msg.payload[\"shard\"]",
        "        # lint: allow[ring-epoch]\n"
        "        self.shard = msg.payload[\"shard\"]")
    findings = analyze_flow_sources([("bad.py", src)])
    hits = _by_rule(findings, "ring-epoch")
    assert hits and all(f.suppressed for f in hits)


def test_waiver_suppresses_and_documents_condition():
    waiver = Waiver(cls="RingControlet", rule="ring-epoch",
                    condition="single-epoch test rig",
                    reason="rig never reconfigures")
    findings = analyze_flow_sources([("bad.py", _EPOCH_BAD)],
                                    waivers=(waiver,))
    hits = _by_rule(findings, "ring-epoch")
    assert hits and all(f.suppressed for f in hits)
    # the audit trail rides in the message for --show-suppressed
    assert "single-epoch test rig" in hits[0].message
    assert "rig never reconfigures" in hits[0].message


def test_waiver_for_other_class_does_not_match():
    waiver = Waiver(cls="SomeOtherControlet", rule="ring-epoch",
                    condition="n/a", reason="n/a")
    findings = analyze_flow_sources([("bad.py", _EPOCH_BAD)],
                                    waivers=(waiver,))
    assert [f for f in _by_rule(findings, "ring-epoch") if not f.suppressed]


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------
def test_rule_names_are_stable():
    """CI pragmas and waivers key off these strings; renaming one
    silently un-suppresses every site that spelled the old name."""
    assert FLOW_RULES == ("pump-leak", "unbounded-buffer",
                         "unthrottled-replication", "retry-no-dedup",
                         "ring-epoch")


def test_injection_sources_exist():
    for rel in FLOW_INJECTION_SOURCES:
        assert (package_root() / rel).is_file(), rel
