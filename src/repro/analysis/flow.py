"""Flow-control static analysis: four gating passes over controlet
hot paths, built on the :mod:`repro.analysis.cfg` path walker.

The protocol cores share a small set of liveness/flow idioms — busy
flags guarding one-in-flight drains, swap-drained batch queues,
retry-requeue-at-front, config-epoch fencing — and the chaos suites
only catch violations that happen to fire under a sampled schedule.
These passes check the idioms statically, on every path:

``pump-leak`` (pump-liveness)
    Every busy-token acquisition (``self._x_busy = True`` and friends)
    must, on every non-abandoned path — *including* the RPC
    error/timeout callback arms — either clear the token again or hand
    it to a timer continuation that does.  A leaked token wedges its
    pump forever: the queue keeps filling, nothing drains, no test
    fails until a soak notices throughput went to zero.  The same pass
    checks every ``Pump(...)`` issue callable invokes its ``done``
    continuation on all paths.

``unbounded-buffer`` (backpressure)
    Any ``self.<list>.append(...)`` outside ``__init__`` needs one of:
    a drain site (``pop``/``del q[:n]``/swap-to-empty), a configured
    cap (``len(self.q) >= self.config...`` check or ``deque(maxlen)``),
    or Pump management.  Otherwise a slow peer turns the queue into an
    unbounded memory leak.

``unthrottled-replication`` (backpressure)
    Replication fan-out (:data:`REPL_TYPES <repro.analysis.commitpoints.REPL_TYPES>`)
    via fire-and-forget ``self.send`` has no in-flight bound and no
    failure signal; it must go through ``self.call(..., callback=)``
    under a pump or batch window.

``retry-no-dedup`` (retry-idempotency)
    Re-driven mutations must stay idempotent: a requeue-at-front
    (``q[:0] = batch`` / ``pump.requeue_front``) is only safe when the
    queued entries carry a rid and the class sits behind a dedup gate
    (``begin_write`` / ``_rid_done`` / sequencer ``_rid_pos``); and no
    path may strip the ``rid`` off a payload it then re-enqueues.

``ring-epoch`` (epoch-guard)
    Ring state is only installed through the epoch-fenced
    ``_install_shard``; overrides must keep the epoch comparison, and
    ``_on_config_update`` overrides must still route through
    ``_install_shard``.  A stale config install resurrects a retired
    replica set.

Suppression is the shared index filter
(:meth:`~repro.analysis.source.SourceIndex.findings`): ``# lint:
allow[<rule>]`` pragmas on the finding line or the line above, plus
declared :class:`~repro.analysis.commitpoints.Waiver` entries in
:data:`FLOW_WAIVERS` (rendered into the message so the justification
is auditable in ``--show-suppressed`` output).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path as _FsPath
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import DONE, FlowWalker, Path, PumpBinding, Step
from repro.analysis.commitpoints import REPL_TYPES, Waiver
from repro.analysis.findings import Finding
from repro.analysis.source import PUSH_METHODS, Closure, Raw, SourceIndex

__all__ = [
    "FLOW_RULES",
    "FLOW_WAIVERS",
    "FLOW_INJECTION_SOURCES",
    "analyze_flow_sources",
    "analyze_flow_tree",
]

FLOW_RULES = (
    "pump-leak",
    "unbounded-buffer",
    "unthrottled-replication",
    "retry-no-dedup",
    "ring-epoch",
)

#: dedup machinery that makes a re-driven mutation idempotent: the
#: controlet-side rid gate, the per-class done-caches, the sequencer's
#: rid→pos table.
_DEDUP_GATE_CALLS = {"begin_write", "_remember_rid"}
_DEDUP_GATE_ATTRS = {"_rid_done", "_rid_pending", "_rid_pos", "dup_appends"}

#: classes analyzed: protocol actors by name-based ancestry, plus the
#: non-actor flow machinery that still owns queues/flags.
_FLOW_BASES = ("Controlet", "Actor")
_EXTRA_ANALYZED = {"PipelinedClient", "SharedLog", "Pump", "Request",
                   "ClusterView", "MigrationPump"}

#: generic machinery exempt from the queue-discipline passes: Pump's
#: own queue/requeue ARE the drain/retry primitives the user-side
#: rules check at each binding site, and MigrationPump's retry requeue
#: is rid-disciplined by its issue callable (the controlet stamps the
#: stable per-key migration rid), which the binding-site rules cover.
_GENERIC_CLASSES = {"Pump", "MigrationPump"}

#: how deep the defer-discharge recursion chases timer continuations
#: (arm → tick → re-arm chains settle well within this).
_DISCHARGE_DEPTH = 3

#: declared-legal flow findings.  Keep this list justified: every entry
#: shows up in ``repro lint --show-suppressed`` with its reason.
FLOW_WAIVERS: Tuple[Waiver, ...] = ()

#: the source set CI replays to prove the seeded flow defects stay
#: caught (``repro lint --inject-flow-defects``): the defect classes in
#: flowdefects.py plus the ancestry they subclass.
FLOW_INJECTION_SOURCES = [
    "core/controlet.py",
    "core/ms_ec.py",
    "core/ms_sc.py",
    "cluster/view.py",
    "cluster/migrate.py",
    "analysis/flowdefects.py",
]

#: the protocol portion of the package :func:`analyze_flow_tree` covers:
#: the controlet cores, the shared log, membership/migration, and the
#: pipelined client.
FLOW_TREE = ("core/", "sharedlog/", "cluster/", "client/pipeline.py")


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def _is_analyzed(index: SourceIndex, cls: str) -> bool:
    if cls in _EXTRA_ANALYZED:
        return True
    ancestry = index.ancestry(cls)
    return any(base in a for a in ancestry for base in _FLOW_BASES)


def _open_flags(steps: Sequence[Step]) -> Dict[str, Step]:
    """Flag attrs still latched at the end of a path, with the step
    that last set them."""
    open_: Dict[str, Step] = {}
    for s in steps:
        if s.kind == "flag-set":
            open_[s.detail] = s
        elif s.kind == "flag-clear":
            open_.pop(s.detail, None)
    return open_


def _defer_discharges(walker: FlowWalker, closure: Optional[Closure],
                      attr: str, depth: int, seen: Set[int]) -> bool:
    """True when a deferred (timer) continuation is guaranteed to clear
    ``attr`` on every non-abandoned path, possibly by deferring again
    (self-sustaining tick loops count as discharged: each firing clears
    the token before re-arming)."""
    if closure is None:
        return False
    key = id(closure.node)
    if depth > _DISCHARGE_DEPTH or key in seen:
        return True
    for path in walker.walk_closure(closure):
        if path.abandoned:
            continue
        if attr not in _open_flags(path.steps):
            continue
        defers = [s for s in path.steps if s.kind == "defer"]
        if not any(_defer_discharges(walker, s.closure, attr, depth + 1,
                                     seen | {key}) for s in defers):
            return False
    return True


def _paths_call_done(walker: FlowWalker, closure: Closure) -> bool:
    """True when every non-abandoned path of a pump issue callable
    invokes (or hands off) its ``done`` continuation, directly or in a
    timer continuation it arms."""
    params = closure.params()
    if len(params) < 2:
        return True  # not the (item, done) shape; nothing to check
    paths = walker.walk_closure(closure, seed_env={params[1]: DONE})
    for path in paths:
        if path.abandoned:
            continue
        if any(s.kind == "done-call" for s in path.steps):
            continue
        defers = [s for s in path.steps if s.kind == "defer"
                  and s.closure is not None]
        if not any(
                any(ds.kind == "done-call"
                    for p2 in walker.walk_closure(d.closure)
                    for ds in p2.steps)
                for d in defers):
            return False
    return True


#: one walked method: (name, funcdef, paths, Pump constructions seen)
_Walked = Tuple[str, ast.AST, List[Path], List[PumpBinding]]


def _walk_methods(index: SourceIndex, cls: str) -> List[_Walked]:
    """Every method ``cls`` defines, walked once for all passes."""
    out: List[_Walked] = []
    for name, funcdef in sorted(index.methods(cls).items()):
        walker = FlowWalker(index, cls)
        out.append((name, funcdef, walker.walk(funcdef), walker.pumps))
    return out


# ----------------------------------------------------------------------
# pass (a): pump-liveness
# ----------------------------------------------------------------------

def _check_liveness(index: SourceIndex, cls: str,
                    walked: List[_Walked]) -> List[Raw]:
    raws: List[Raw] = []
    pumps: List[PumpBinding] = []
    walker = FlowWalker(index, cls)  # re-walks timer continuations
    for name, _funcdef, paths, bindings in walked:
        pumps.extend(bindings)
        if name == "__init__":
            continue  # construction only declares flags
        for path in paths:
            if path.abandoned:
                continue
            leaked = _open_flags(path.steps)
            if not leaked:
                continue
            defers = [s for s in path.steps if s.kind == "defer"]
            for attr, step in leaked.items():
                if any(_defer_discharges(walker, d.closure, attr, 0, set())
                       for d in defers):
                    continue
                where = "an RPC callback" if step.in_callback else "a fall-through"
                raws.append(Raw(
                    step.file, step.line, "pump-leak",
                    f"{cls}.{name}: busy token self.{attr} acquired here is "
                    f"left latched on {where} path that neither clears it "
                    "nor re-arms a timer that does — the pump it guards "
                    "wedges permanently",
                    cls))
    # every Pump issue callable must complete its done continuation
    for binding in pumps:
        if binding.issue is None:
            continue
        if not _paths_call_done(walker, binding.issue):
            node = binding.issue.node
            raws.append(Raw(
                binding.issue.file or binding.file,
                getattr(node, "lineno", binding.line), "pump-leak",
                f"{cls}: Pump issue callable {binding.issue.name!r} (bound "
                f"to self.{binding.attr}) has a path that never invokes "
                "done() — the pump stays busy forever and its queue is "
                "never drained again",
                cls))
    return raws


# ----------------------------------------------------------------------
# pass (b): backpressure
# ----------------------------------------------------------------------

@dataclass
class _QueueEvidence:
    appends: Dict[str, Step]
    drains: Set[str]
    bounds: Set[str]
    caps: Set[str]
    pump_attrs: Set[str]
    requeues: List[Step]
    rid_strip_appends: List[Step]


def _gather_queue_evidence(index: SourceIndex,
                           walked: List[_Walked]) -> _QueueEvidence:
    ev = _QueueEvidence({}, set(), set(), set(), set(), [], [])
    for name, funcdef, paths, bindings in walked:
        ev.pump_attrs |= {b.attr for b in bindings}
        in_init = name == "__init__"
        for path in paths:
            stripped_since = False
            for s in path.steps:
                if s.kind == "append" and not in_init:
                    ev.appends.setdefault(s.detail, s)
                    if stripped_since:
                        ev.rid_strip_appends.append(s)
                elif s.kind == "drain" and not in_init:
                    ev.drains.add(s.detail)
                elif s.kind == "bound":
                    ev.bounds.add(s.detail)
                elif s.kind in ("pump-push", "pump-new"):
                    ev.pump_attrs.add(s.detail)
                elif s.kind in ("requeue", "pump-requeue"):
                    ev.requeues.append(s)
                elif s.kind == "rid-strip":
                    stripped_since = True
        # cap checks are branch tests, not steps: a flat fact
        ev.caps |= index.facts(funcdef).len_caps
    return ev


def _merged_evidence(index: SourceIndex,
                     evidence: Dict[str, _QueueEvidence],
                     cls: str) -> _QueueEvidence:
    merged = _QueueEvidence({}, set(), set(), set(), set(), [], [])
    for ancestor in index.ancestry(cls):
        ev = evidence.get(ancestor)
        if ev is None:
            continue
        for attr, step in ev.appends.items():
            merged.appends.setdefault(attr, step)
        merged.drains |= ev.drains
        merged.bounds |= ev.bounds
        merged.caps |= ev.caps
        merged.pump_attrs |= ev.pump_attrs
    return merged


def _check_backpressure(index: SourceIndex, cls: str,
                        evidence: Dict[str, _QueueEvidence]) -> List[Raw]:
    raws: List[Raw] = []
    own = evidence[cls]
    merged = _merged_evidence(index, evidence, cls)
    for attr, step in sorted(own.appends.items()):
        if attr in merged.drains or attr in merged.bounds \
                or attr in merged.caps or attr in merged.pump_attrs:
            continue
        raws.append(Raw(
            step.file, step.line, "unbounded-buffer",
            f"{cls}: self.{attr} is appended here but nothing along the "
            "class ancestry drains, caps (ControlConfig batch knob / "
            "deque(maxlen)), or pump-manages it — a slow consumer grows "
            "it without bound",
            cls))
    # fire-and-forget replication fan-out
    for name, funcdef in sorted(index.methods(cls).items()):
        for line, msg_type in index.facts(funcdef).sends:
            if msg_type not in REPL_TYPES:
                continue
            raws.append(Raw(
                index.file_of(cls), line, "unthrottled-replication",
                f"{cls}.{name}: replication fan-out "
                f"({msg_type!r}) via fire-and-forget send() has "
                "no in-flight bound and no failure signal — route it "
                "through call(callback=) under a Pump or batch window",
                cls))
    return raws


# ----------------------------------------------------------------------
# pass (c): retry-idempotency
# ----------------------------------------------------------------------

def _class_has_dedup_gate(index: SourceIndex, cls: str) -> bool:
    return any(index.facts(fn).attrs & (_DEDUP_GATE_ATTRS | _DEDUP_GATE_CALLS)
               for ancestor in index.ancestry(cls)
               for fn in index.methods(ancestor).values())


def _enqueue_sites_mention_rid(index: SourceIndex, cls: str, attr: str) -> bool:
    """Do the methods that feed ``self.<attr>`` thread a rid into the
    queued entries?  Flat check over the ancestry (methods keyed by
    name): an enqueuing method satisfies it either directly or through
    one level of caller indirection (``_forward_down`` attaches the
    rid, ``_enqueue_down`` does the append) — the walker already proved
    the queue/requeue relationship, this only locates the identity."""
    methods = [(name, index.facts(fn))
               for ancestor in index.ancestry(cls)
               for name, fn in index.methods(ancestor).items()]
    feeders = {name for name, f in methods if attr in f.fed}
    callers = {name for name, f in methods
               if (f.self_calls - PUSH_METHODS) & feeders}
    rid = {name for name, f in methods if "rid" in f.attrs or "rid" in f.strings}
    return bool((feeders | callers) & rid)


def _check_retry(index: SourceIndex, cls: str,
                 evidence: Dict[str, _QueueEvidence]) -> List[Raw]:
    raws: List[Raw] = []
    own = evidence[cls]
    gated = _class_has_dedup_gate(index, cls)
    for step in own.requeues:
        attr = step.detail
        if not gated:
            raws.append(Raw(
                step.file, step.line, "retry-no-dedup",
                f"{cls}: retry requeue of self.{attr} but no dedup gate "
                "(begin_write rid cache / _rid_done / sequencer _rid_pos) "
                "anywhere on the class ancestry — a re-driven mutation "
                "can apply twice",
                cls))
            continue
        if not _enqueue_sites_mention_rid(index, cls, attr):
            raws.append(Raw(
                step.file, step.line, "retry-no-dedup",
                f"{cls}: self.{attr} is requeued for retry but its "
                "enqueue sites never attach a rid — downstream dedup "
                "gates cannot recognize the re-driven entries",
                cls))
    for step in own.rid_strip_appends:
        raws.append(Raw(
            step.file, step.line, "retry-no-dedup",
            f"{cls}: payload queued into self.{step.detail} after its "
            "rid was stripped on this path — if this entry is re-driven "
            "no dedup gate can recognize it",
            cls))
    return raws


# ----------------------------------------------------------------------
# pass (d): epoch-guard
# ----------------------------------------------------------------------

#: double-ring routing state a controlet may only install through the
#: epoch-fenced paths below — a stale broadcast writing these directly
#: can re-open a committed reshard window.
_RING_STATE_ATTRS = ("_ring", "_old_ring", "_reshard")
_RING_INSTALLERS = ("__init__", "_install_shard", "_install_ring")


def _check_epoch(index: SourceIndex, cls: str) -> List[Raw]:
    ancestry = index.ancestry(cls)
    file = index.file_of(cls)
    methods = index.methods(cls)
    if cls == "ClusterView" or any("ClusterView" in a for a in ancestry):
        # the membership view's install() IS the fence every follower
        # relies on: it must compare incoming vs held epoch.
        raws: List[Raw] = []
        if "install" in methods \
                and not index.facts(methods["install"]).epoch_compare:
            raws.append(Raw(
                file, methods["install"].lineno, "ring-epoch",
                f"{cls}.install: override drops the epoch comparison — "
                "a lagging standby's snapshot can roll the membership "
                "view (and its ring generation) backwards",
                cls))
        return raws
    if not any("Controlet" in a for a in ancestry):
        return []
    raws = []
    for name, funcdef in sorted(methods.items()):
        if name in ("__init__", "_install_shard"):
            continue
        for line, target in index.facts(funcdef).stores:
            if target == "shard":
                raws.append(Raw(
                    file, line, "ring-epoch",
                    f"{cls}.{name}: ring state installed directly "
                    "(self.shard = ...) instead of through the "
                    "epoch-fenced _install_shard — a stale config "
                    "delivery can resurrect a retired replica set",
                    cls))
            elif target in _RING_STATE_ATTRS and name not in _RING_INSTALLERS:
                raws.append(Raw(
                    file, line, "ring-epoch",
                    f"{cls}.{name}: double-ring routing state "
                    f"(self.{target} = ...) installed outside "
                    "the fenced installers "
                    f"({', '.join(_RING_INSTALLERS)}) — a delayed "
                    "broadcast from a previous window can re-open "
                    "dual-routing after the cutover committed",
                    cls))
    if "_install_shard" in methods \
            and not index.facts(methods["_install_shard"]).epoch_compare:
        raws.append(Raw(
            file, methods["_install_shard"].lineno, "ring-epoch",
            f"{cls}._install_shard: override drops the config-epoch "
            "comparison — out-of-order config updates are no longer "
            "rejected",
            cls))
    if "_on_config_update" in methods:
        calls = index.facts(methods["_on_config_update"]).calls
        if not calls & {"_install_shard", "_on_config_update"}:
            raws.append(Raw(
                file, methods["_on_config_update"].lineno, "ring-epoch",
                f"{cls}._on_config_update: override does not route the "
                "new ring through _install_shard (or super()), bypassing "
                "the epoch fence",
                cls))
    return raws


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------

def analyze_flow_sources(
    sources,
    waivers: Sequence[Waiver] = FLOW_WAIVERS,
) -> List[Finding]:
    """Run all four flow passes over ``(rel_path, source)`` pairs or a
    :class:`SourceIndex`."""
    index = SourceIndex.of(sources)
    analyzed = [cls for cls in sorted(index.classes)
                if _is_analyzed(index, cls)]
    walked = {cls: _walk_methods(index, cls) for cls in analyzed}
    evidence = {cls: _gather_queue_evidence(index, walked[cls])
                for cls in analyzed}

    raws: List[Raw] = []
    for cls in analyzed:
        raws.extend(_check_liveness(index, cls, walked[cls]))
        if cls in _GENERIC_CLASSES:
            continue  # Pump's queue/requeue ARE the primitives
        raws.extend(_check_backpressure(index, cls, evidence))
        raws.extend(_check_retry(index, cls, evidence))
        raws.extend(_check_epoch(index, cls))
    # forked paths and sibling classes rediscover the same site
    return index.findings(raws, waivers=waivers, tag="flow waiver")


def analyze_flow_tree(root: Optional[_FsPath] = None) -> List[Finding]:
    """Flow findings for :data:`FLOW_TREE` of the package."""
    return analyze_flow_sources(SourceIndex.from_root(root, *FLOW_TREE))
