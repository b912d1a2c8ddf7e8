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

Suppression follows the house rules: ``# lint: allow[<rule>]`` pragmas
on the finding line or the line above, plus declared
:class:`~repro.analysis.commitpoints.Waiver` entries in
:data:`FLOW_WAIVERS` (rendered into the message so the justification
is auditable in ``--show-suppressed`` output).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path as _FsPath
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import (
    DONE,
    ClassTable,
    Closure,
    FlowWalker,
    Path,
    PumpBinding,
    Step,
    looks_like_flag,
)
from repro.analysis.commitpoints import REPL_TYPES, Waiver
from repro.analysis.findings import Finding
from repro.analysis.lint import _parse_pragmas

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


@dataclass
class _Raw:
    file: str
    line: int
    rule: str
    message: str
    cls: str
    waived_by: Optional[Waiver] = None


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------

def _is_analyzed(table: ClassTable, cls: str) -> bool:
    if cls in _EXTRA_ANALYZED:
        return True
    ancestry = table.ancestry(cls)
    return any(base in a for a in ancestry for base in _FLOW_BASES)


def _own_methods(table: ClassTable, cls: str):
    c = table.classes.get(cls)
    return c.methods if c is not None else {}


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


def _paths_call_done(walker: FlowWalker, closure: Closure,
                     depth: int = 0, seen: Optional[Set[int]] = None) -> bool:
    """True when every non-abandoned path of a pump issue callable
    invokes (or hands off) its ``done`` continuation."""
    seen = set() if seen is None else seen
    key = id(closure.node)
    if depth > _DISCHARGE_DEPTH or key in seen:
        return True
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


# ----------------------------------------------------------------------
# pass (a): pump-liveness
# ----------------------------------------------------------------------

def _check_liveness(table: ClassTable, cls: str) -> List[_Raw]:
    raws: List[_Raw] = []
    pumps: List[PumpBinding] = []
    for name, funcdef in sorted(_own_methods(table, cls).items()):
        walker = FlowWalker(table, cls)
        paths = walker.walk(funcdef)
        pumps.extend(walker.pumps)
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
                raws.append(_Raw(
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
        walker = FlowWalker(table, cls)
        if not _paths_call_done(walker, binding.issue):
            node = binding.issue.node
            raws.append(_Raw(
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


def _gather_queue_evidence(table: ClassTable, cls: str) -> _QueueEvidence:
    ev = _QueueEvidence({}, set(), set(), set(), set(), [], [])
    for name, funcdef in sorted(_own_methods(table, cls).items()):
        walker = FlowWalker(table, cls)
        paths = walker.walk(funcdef)
        for b in walker.pumps:
            ev.pump_attrs.add(b.attr)
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
                elif s.kind == "requeue":
                    ev.requeues.append(s)
                elif s.kind == "pump-requeue":
                    ev.requeues.append(s)
                elif s.kind == "rid-strip":
                    stripped_since = True
        # cap checks are branch tests, not steps: flat scan
        for node in ast.walk(funcdef):
            if isinstance(node, ast.Compare) \
                    and isinstance(node.left, ast.Call) \
                    and isinstance(node.left.func, ast.Name) \
                    and node.left.func.id == "len" and node.left.args:
                target = node.left.args[0]
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self":
                    ev.caps.add(target.attr)
    return ev


def _merged_evidence(table: ClassTable,
                     evidence: Dict[str, _QueueEvidence],
                     cls: str) -> _QueueEvidence:
    merged = _QueueEvidence({}, set(), set(), set(), set(), [], [])
    for ancestor in table.ancestry(cls):
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


def _check_backpressure(table: ClassTable, cls: str,
                        evidence: Dict[str, _QueueEvidence]) -> List[_Raw]:
    raws: List[_Raw] = []
    own = evidence[cls]
    merged = _merged_evidence(table, evidence, cls)
    for attr, step in sorted(own.appends.items()):
        if looks_like_flag(attr):
            continue  # per-key flag dicts are handled by pump-liveness
        if attr in merged.drains or attr in merged.bounds \
                or attr in merged.caps or attr in merged.pump_attrs:
            continue
        raws.append(_Raw(
            step.file, step.line, "unbounded-buffer",
            f"{cls}: self.{attr} is appended here but nothing along the "
            "class ancestry drains, caps (ControlConfig batch knob / "
            "deque(maxlen)), or pump-manages it — a slow consumer grows "
            "it without bound",
            cls))
    # fire-and-forget replication fan-out
    for name, funcdef in sorted(_own_methods(table, cls).items()):
        for node in ast.walk(funcdef):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "send"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in REPL_TYPES):
                continue
            raws.append(_Raw(
                table.file_of(cls), node.lineno, "unthrottled-replication",
                f"{cls}.{name}: replication fan-out "
                f"({node.args[1].value!r}) via fire-and-forget send() has "
                "no in-flight bound and no failure signal — route it "
                "through call(callback=) under a Pump or batch window",
                cls))
    return raws


# ----------------------------------------------------------------------
# pass (c): retry-idempotency
# ----------------------------------------------------------------------

def _class_has_dedup_gate(table: ClassTable, cls: str) -> bool:
    for ancestor in table.ancestry(cls):
        for funcdef in _own_methods(table, ancestor).values():
            for node in ast.walk(funcdef):
                if isinstance(node, ast.Attribute) \
                        and node.attr in (_DEDUP_GATE_ATTRS | _DEDUP_GATE_CALLS):
                    return True
    return False


def _enqueue_sites_mention_rid(table: ClassTable, cls: str, attr: str) -> bool:
    """Do the methods that feed ``self.<attr>`` thread a rid into the
    queued entries?  Flat check over the ancestry: an enqueuing method
    satisfies it either directly or through one level of caller
    indirection (``_forward_down`` attaches the rid, ``_enqueue_down``
    does the append) — the walker already proved the queue/requeue
    relationship, this only locates the identity."""
    feeders: Set[str] = set()
    rid_methods: Set[str] = set()
    callers: Dict[str, Set[str]] = {}
    for ancestor in table.ancestry(cls):
        for name, funcdef in _own_methods(table, ancestor).items():
            for node in ast.walk(funcdef):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and isinstance(node.func.value, ast.Name):
                    base_name = node.func.value.id
                    if node.func.attr in ("append", "extend", "insert",
                                          "appendleft", "push"):
                        base = node.func.value
                    else:
                        base = None
                    if base_name == "self" and base is None:
                        # self.helper(...): caller edge
                        callers.setdefault(node.func.attr, set()).add(name)
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in ("append", "extend", "insert",
                                               "appendleft", "push"):
                    target = node.func.value
                    while isinstance(target, ast.Subscript):
                        target = target.value
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self" \
                            and target.attr == attr:
                        feeders.add(name)
                if (isinstance(node, ast.Constant) and node.value == "rid") \
                        or (isinstance(node, ast.Attribute)
                            and node.attr == "rid"):
                    rid_methods.add(name)
    for feeder in feeders:
        if feeder in rid_methods:
            return True
        if any(c in rid_methods for c in callers.get(feeder, ())):
            return True
    return False


def _check_retry(table: ClassTable, cls: str,
                 evidence: Dict[str, _QueueEvidence]) -> List[_Raw]:
    raws: List[_Raw] = []
    own = evidence[cls]
    gated = _class_has_dedup_gate(table, cls)
    for step in own.requeues:
        attr = step.detail
        if not gated:
            raws.append(_Raw(
                step.file, step.line, "retry-no-dedup",
                f"{cls}: retry requeue of self.{attr} but no dedup gate "
                "(begin_write rid cache / _rid_done / sequencer _rid_pos) "
                "anywhere on the class ancestry — a re-driven mutation "
                "can apply twice",
                cls))
            continue
        if not _enqueue_sites_mention_rid(table, cls, attr):
            raws.append(_Raw(
                step.file, step.line, "retry-no-dedup",
                f"{cls}: self.{attr} is requeued for retry but its "
                "enqueue sites never attach a rid — downstream dedup "
                "gates cannot recognize the re-driven entries",
                cls))
    for step in own.rid_strip_appends:
        raws.append(_Raw(
            step.file, step.line, "retry-no-dedup",
            f"{cls}: payload queued into self.{step.detail} after its "
            "rid was stripped on this path — if this entry is re-driven "
            "no dedup gate can recognize it",
            cls))
    return raws


# ----------------------------------------------------------------------
# pass (d): epoch-guard
# ----------------------------------------------------------------------

def _mentions_epoch_compare(funcdef) -> bool:
    for node in ast.walk(funcdef):
        if isinstance(node, ast.Compare):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and "epoch" in sub.attr:
                    return True
                if isinstance(sub, ast.Name) and "epoch" in sub.id:
                    return True
    return False


#: double-ring routing state a controlet may only install through the
#: epoch-fenced paths below — a stale broadcast writing these directly
#: can re-open a committed reshard window.
_RING_STATE_ATTRS = ("_ring", "_old_ring", "_reshard")
_RING_INSTALLERS = ("__init__", "_install_shard", "_install_ring")


def _check_epoch(table: ClassTable, cls: str) -> List[_Raw]:
    ancestry = table.ancestry(cls)
    file = table.file_of(cls)
    methods = _own_methods(table, cls)
    if cls == "ClusterView" or any("ClusterView" in a for a in ancestry):
        # the membership view's install() IS the fence every follower
        # relies on: it must compare incoming vs held epoch.
        raws: List[_Raw] = []
        if "install" in methods \
                and not _mentions_epoch_compare(methods["install"]):
            raws.append(_Raw(
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
        for node in ast.walk(funcdef):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if not (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        continue
                    if target.attr == "shard":
                        raws.append(_Raw(
                            file, node.lineno, "ring-epoch",
                            f"{cls}.{name}: ring state installed directly "
                            "(self.shard = ...) instead of through the "
                            "epoch-fenced _install_shard — a stale config "
                            "delivery can resurrect a retired replica set",
                            cls))
                    elif target.attr in _RING_STATE_ATTRS \
                            and name not in _RING_INSTALLERS:
                        raws.append(_Raw(
                            file, node.lineno, "ring-epoch",
                            f"{cls}.{name}: double-ring routing state "
                            f"(self.{target.attr} = ...) installed outside "
                            "the fenced installers "
                            f"({', '.join(_RING_INSTALLERS)}) — a delayed "
                            "broadcast from a previous window can re-open "
                            "dual-routing after the cutover committed",
                            cls))
    if "_install_shard" in methods \
            and not _mentions_epoch_compare(methods["_install_shard"]):
        raws.append(_Raw(
            file, methods["_install_shard"].lineno, "ring-epoch",
            f"{cls}._install_shard: override drops the config-epoch "
            "comparison — out-of-order config updates are no longer "
            "rejected",
            cls))
    if "_on_config_update" in methods:
        routed = any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("_install_shard", "_on_config_update")
            for node in ast.walk(methods["_on_config_update"]))
        if not routed:
            raws.append(_Raw(
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
    sources: List[Tuple[str, str]],
    waivers: Sequence[Waiver] = FLOW_WAIVERS,
) -> List[Finding]:
    """Run all four flow passes over ``(rel_path, source)`` pairs."""
    table = ClassTable(sources)
    src_files = {rel for rel, _src in sources}
    pragmas = {rel: _parse_pragmas(src) for rel, src in sources}

    evidence: Dict[str, _QueueEvidence] = {}
    analyzed = [cls for cls in sorted(table.classes)
                if _is_analyzed(table, cls)]
    for cls in analyzed:
        evidence[cls] = _gather_queue_evidence(table, cls)

    raws: List[_Raw] = []
    for cls in analyzed:
        raws.extend(_check_liveness(table, cls))
        if cls in _GENERIC_CLASSES:
            continue  # Pump's queue/requeue ARE the primitives
        raws.extend(_check_backpressure(table, cls, evidence))
        raws.extend(_check_retry(table, cls, evidence))
        raws.extend(_check_epoch(table, cls))

    by_cls_rule = {(w.cls, w.rule): w for w in waivers}
    best: Dict[Tuple[str, int, str], Finding] = {}
    for raw in raws:
        if raw.file not in src_files:
            continue  # step inlined from a file outside this run
        line_rules = (pragmas[raw.file].get(raw.line, set())
                      | pragmas[raw.file].get(raw.line - 1, set()))
        suppressed = raw.rule in line_rules or "*" in line_rules
        message = raw.message
        waiver = raw.waived_by or by_cls_rule.get((raw.cls, raw.rule))
        if waiver is not None:
            suppressed = True
            message += (f" [flow waiver: {waiver.condition} — "
                        f"{waiver.reason}]")
        finding = Finding(path=raw.file, line=raw.line, rule=raw.rule,
                          message=message, suppressed=suppressed)
        key = (raw.file, raw.line, raw.rule)
        prev = best.get(key)
        # forked paths and sibling classes rediscover the same site; an
        # unsuppressed occurrence outranks a waived one
        if prev is None or (prev.suppressed and not suppressed):
            best[key] = finding
    return sorted(best.values(), key=lambda f: (f.path, f.line, f.rule))


def analyze_flow_tree(root: Optional[_FsPath] = None) -> List[Finding]:
    """Flow findings for the protocol portion of the package: the
    controlet cores, the shared log, and the pipelined client."""
    if root is None:
        import repro

        root = _FsPath(repro.__file__).resolve().parent
    root = _FsPath(root)
    files: List[_FsPath] = []
    for sub in ("core", "sharedlog", "cluster"):
        d = root / sub
        if d.is_dir():
            files.extend(sorted(d.glob("*.py")))
    pipeline = root / "client" / "pipeline.py"
    if pipeline.is_file():
        files.append(pipeline)
    sources = [(p.relative_to(root).as_posix(), p.read_text()) for p in files]
    return analyze_flow_sources(sources)
