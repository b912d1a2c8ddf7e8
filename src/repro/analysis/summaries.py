"""Static handler summaries: which message types commute.

The model checker (:mod:`repro.analysis.explore`) explores interleavings
of message deliveries.  Two deliveries to **different** actors always
commute in this framework (a handler mutates only its own actor's state
and *appends* sends, which are order-insensitive as a multiset).  Two
deliveries to the **same** actor commute only if their handlers touch
disjoint slices of the actor's state — e.g. ``get`` (reads nothing on a
controlet, forwards to the datalet) commutes with ``seq_probe`` (reads
``_seq``), but two ``replicate`` batches do not (both advance
``_stream``).

This pass computes, per actor class and per handler method, the set of
``self.*`` attributes **read** and **written** (transitively through
same-class helper calls, including nested callback closures — a
callback's accesses happen at a later event, but charging them to the
registering handler only makes the summary more conservative, never
less sound).  Handlers whose footprint cannot be bounded (``self``
escapes into an external call, a ``<lambda>``/``<dynamic>``
registration) are marked opaque and commute with nothing.

Commutativity rule for types ``a``, ``b`` on one class::

    W(a) ∩ (R(b) ∪ W(b)) = ∅  and  W(b) ∩ (R(a) ∪ W(a)) = ∅

with ``stats`` (pure accounting, excluded from state fingerprints too)
ignored on both sides.  The message-type→method pairing and the
per-method facts come from the shared :class:`~repro.analysis.source.
SourceIndex`, whose registration table the conformance checker reads
too, so the static passes stay in sync.
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.analysis.source import Facts, SourceIndex, is_self

__all__ = [
    "DATALET_ATTR",
    "DATALET_READ_OPS",
    "HandlerFootprint",
    "ClassSummary",
    "SummaryTable",
    "build_summaries",
    "datalet_footprint",
]

#: attributes that never count toward conflicts.  ``stats`` is pure
#: accounting (state fingerprints exclude it for the same reason).  The
#: ``_rid_*`` dedup tables are quiescent under the model checker: its
#: scripted clients never stamp request ids, so ``begin_write`` returns
#: before touching them and reordering deliveries cannot change them —
#: counting them would make every pair of write handlers conflict for
#: state that provably never moves during exploration.
IGNORED_ATTRS = {"stats", "_rid_done", "_rid_order", "_rid_pending"}

#: self-methods that emit messages / arm timers: order-insensitive
#: effects (multiset append), not state conflicts.  ``datalet_call`` is
#: here too — its *framework plumbing* is an emit — but its **effect on
#: the colocated datalet** is charged separately (see DATALET_ATTR):
#: under the model checker a colocated engine call executes
#: synchronously inside the handler, so it is very much part of the
#: handler's footprint.
_EMIT_METHODS = {
    "send", "call", "respond", "forward", "redirect", "set_timer",
    "datalet_call", "emit", "loop_phase", "now",
}

#: pseudo-attribute standing for "the colocated datalet's stored data".
#: Handlers that issue ``datalet_call`` read or write it depending on
#: the engine op; the explorer gives *direct* deliveries to a datalet a
#: synthetic footprint over the same token, so controlet-vs-datalet
#: conflicts on one host compare in a shared vocabulary.
DATALET_ATTR = "<datalet>"

#: engine ops that only read stored data (everything else mutates —
#: including unknown/dynamic op names, conservatively).
DATALET_READ_OPS = {"get", "scan", "snapshot", "stats"}

#: constructors a bare ``self`` may escape into without making the
#: handler opaque: a Request only reaches back through
#: ``respond``/``_complete_request`` (an emit plus the ignored ``_rid_*``
#: tables), so its footprint adds nothing.
_SELF_SAFE_CALLEES = {"Request"}


@dataclass
class HandlerFootprint:
    """Transitive read/write sets of one handler method."""

    method: str
    reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    #: True when the footprint cannot be statically bounded.
    opaque: bool = False

    def conflicts(self, other: "HandlerFootprint") -> bool:
        if self.opaque or other.opaque:
            return True
        w1, w2 = self.writes - IGNORED_ATTRS, other.writes - IGNORED_ATTRS
        r1, r2 = self.reads - IGNORED_ATTRS, other.reads - IGNORED_ATTRS
        return bool(w1 & (r2 | w2)) or bool(w2 & (r1 | w1))


@dataclass
class ClassSummary:
    """Per-actor-class commutativity oracle."""

    cls: str
    #: message type -> footprint of its (transitively resolved) handler.
    handlers: Dict[str, HandlerFootprint] = field(default_factory=dict)

    def footprint(self, msg_type: str) -> Optional[HandlerFootprint]:
        """Footprint of the handler bound to ``msg_type`` (None = no
        statically known binding: treat as conflicting with everything)."""
        return self.handlers.get(msg_type)

    def commutes(self, type_a: str, type_b: str) -> bool:
        """True only when reordering deliveries of ``type_a``/``type_b``
        to one instance of this class provably reaches the same state."""
        fa = self.handlers.get(type_a)
        fb = self.handlers.get(type_b)
        if fa is None or fb is None:
            return False
        return not fa.conflicts(fb)


class SummaryTable:
    """All class summaries, with MRO-style lookup by class name chain."""

    def __init__(self, classes: Dict[str, ClassSummary]):
        self.classes = classes

    def for_class_chain(self, names: Iterable[str]) -> ClassSummary:
        """Merge summaries along an MRO chain (most-derived first): a
        subclass registration shadows the base's for the same type."""
        merged = ClassSummary(cls="+".join(names))
        for name in names:
            summary = self.classes.get(name)
            if summary is None:
                continue
            for t, fp in summary.handlers.items():
                merged.handlers.setdefault(t, fp)
        return merged


#: methods of :class:`repro.core.pump.Pump` that run the bound
#: issue callable synchronously (push/kick drain inline when idle).
_PUMP_DRIVERS = {"push", "kick", "requeue_front"}


def _as_owner(node: ast.AST) -> Optional[Facts]:
    """Facts of a part's handler with ``self._owner.X`` read as its owner's
    ``self.X``; None (opaque) if it touches anything else of the part."""
    tree = copy.deepcopy(node)
    selves = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and is_self(n.value)]
    through = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.value in selves]
    if any(n.attr != "_owner" for n in selves) or len(through) != len(selves):
        return None
    for n in through:
        n.value = n.value.value
    return Facts(tree)


def _footprint(
    index: SourceIndex,
    cls: str,
    method: str,
    cache: Dict[Tuple[str, str, str], HandlerFootprint],
    pumps: Dict[str, str],
    part: Optional[str] = None,
    parts: Set[str] = frozenset(),
    after: str = "",
) -> HandlerFootprint:
    """Transitive footprint of ``method`` resolved against ``cls`` (past
    class ``after``, for ``super().method`` there).  ``pumps`` are the
    class's ``Pump(self.<issue>)`` bindings: driving a pump runs its
    issue callable (synchronously when idle), so the issue's footprint
    belongs to the driver; a ``part``'s is its owner's, and so is a
    method of ``parts`` (the classes ``cls`` builds with a bare
    ``self``) driven here that touches only its owner."""
    key = (cls, method if part is None else f"{part}.{method}", after)
    if key in cache:  # done, or recursion (retry loops): already accounted
        return cache[key]
    node, owner = index.resolve(part or cls, method, after)
    fp = HandlerFootprint(method=method)
    # the whole body *including* nested callback closures: their
    # accesses happen at later events, and folding them in only widens
    # the footprint (conservative in the right direction).  A mutating
    # container call ``self.attr.m(...)`` cannot be told from a pure
    # read, so it counts as both.
    facts = node and (index.facts(node) if part is None else _as_owner(node))
    if facts is None:
        fp.opaque = True
        cache[key] = fp
        return fp
    fp.reads |= facts.reads
    fp.writes |= facts.writes | {attr for attr, _m in facts.drives}
    # a colocated engine call executes synchronously under the checker,
    # so its op belongs to the handler's footprint (a remote target
    # makes this an over-approximation)
    for op in facts.datalet_ops:
        if op is None or op not in DATALET_READ_OPS:
            fp.writes.add(DATALET_ATTR)
        if op is None or op in DATALET_READ_OPS:
            fp.reads.add(DATALET_ATTR)
    # bare self passed as an argument escapes the analysis entirely
    fp.opaque = bool(facts.self_passed_to - _SELF_SAFE_CALLEES)
    calls = {(m, "", "") for m in facts.self_calls - _EMIT_METHODS} | {
        (pumps[attr], "", "") for attr, m in facts.drives
        if attr in pumps and m in _PUMP_DRIVERS} | {
        (m, p, "") for _attr, m in facts.drives for p in parts if m in index.methods(p)}
    calls |= {(m, part or "", owner) for m in facts.super_calls}  # past our definition
    cache[key] = HandlerFootprint(method=method)  # what a recursive call sees
    for callee, via, past in sorted(calls):
        sub = _footprint(index, cls, callee, cache, pumps, via or None, parts, past)
        if via and sub.opaque:
            continue  # it touches the part: the drive's write stands
        fp.reads |= sub.reads
        fp.writes |= sub.writes
        fp.opaque |= sub.opaque
    cache[key] = fp
    return fp


def build_from_sources(sources) -> SummaryTable:
    """Summaries over ``(rel_path, source)`` pairs or a :class:`SourceIndex`."""
    index = SourceIndex.of(sources)
    cache: Dict[Tuple[str, str, str], HandlerFootprint] = {}
    table: Dict[str, ClassSummary] = {}
    for cls in sorted(index.classes):
        # a handler registered by a base class but *overridden* in a
        # subclass (or dispatching to overridden hooks, e.g. Controlet's
        # _client_op -> handle_put) must be summarized in the context of
        # the concrete class, so inherit every ancestor's bindings and
        # resolve methods against ``cls`` itself
        bindings = index.handlers(cls)
        if not bindings:
            continue
        pumps = index.pumps(cls)
        # a part built with our ``self`` registers its handlers on us
        parts = {p for a in index.ancestry(cls) for fn in index.methods(a).values()
                 for p in index.facts(fn).self_passed_to}
        summary = ClassSummary(cls=cls)
        for msg_type, method in sorted(bindings.items()):
            if method in ("<lambda>", "<dynamic>"):
                summary.handlers[msg_type] = HandlerFootprint(
                    method=method, opaque=True
                )
                continue
            summary.handlers[msg_type] = _footprint(
                index, cls, method, cache, pumps, parts=parts
            )
        for reg in (r for r in index.registrations if r.cls in parts):
            for msg_type in reg.types or ():
                summary.handlers.setdefault(msg_type, _footprint(
                    index, cls, reg.handler, cache, pumps, reg.cls, parts))
        table[cls] = summary
    return SummaryTable(table)


def datalet_footprint(msg_type: str) -> HandlerFootprint:
    """Synthetic footprint for a message delivered *directly* to a
    datalet actor (remote engine calls: recovery snapshots, AA fan-out).
    Expressed over :data:`DATALET_ATTR` so it conflicts correctly with a
    colocated controlet handler touching the same engine."""
    fp = HandlerFootprint(method=f"datalet:{msg_type}")
    if msg_type in DATALET_READ_OPS:
        fp.reads.add(DATALET_ATTR)
    else:
        fp.writes.add(DATALET_ATTR)
    return fp


def build_summaries(root: Optional[Path] = None) -> SummaryTable:
    """Summaries for the whole installed ``repro`` package (default) or
    an explicit source root."""
    return build_from_sources(SourceIndex.from_root(root))
