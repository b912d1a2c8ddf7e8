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

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.analysis.source import SourceIndex

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

    def describe(self) -> str:
        lines = []
        for cls in sorted(self.classes):
            summary = self.classes[cls]
            for t in sorted(summary.handlers):
                fp = summary.handlers[t]
                shape = "opaque" if fp.opaque else (
                    f"R={sorted(fp.reads - IGNORED_ATTRS)} "
                    f"W={sorted(fp.writes - IGNORED_ATTRS)}"
                )
                lines.append(f"{cls}.{fp.method} [{t}]: {shape}")
        return "\n".join(lines)


#: methods of :class:`repro.core.controlet.Pump` that run the bound
#: issue callable synchronously (push/kick drain inline when idle).
_PUMP_DRIVERS = {"push", "kick", "requeue_front"}


def _footprint(
    index: SourceIndex,
    cls: str,
    method: str,
    cache: Dict[Tuple[str, str], HandlerFootprint],
    stack: Set[Tuple[str, str]],
    pumps: Dict[str, str],
) -> HandlerFootprint:
    """Transitive footprint of ``method`` resolved against ``cls``.
    ``pumps`` are the class's ``Pump(self.<issue>)`` bindings: driving
    a pump runs its issue callable (synchronously when idle), so the
    issue's footprint belongs to the driver."""
    key = (cls, method)
    if key in cache:
        return cache[key]
    if key in stack:  # recursion (retry loops): already accounted
        return HandlerFootprint(method=method)
    node, _owner = index.resolve(cls, method)
    fp = HandlerFootprint(method=method)
    if node is None:
        fp.opaque = True
        cache[key] = fp
        return fp
    # the whole body *including* nested callback closures: their
    # accesses happen at later events, and folding them in only widens
    # the footprint (conservative in the right direction).  A mutating
    # container call ``self.attr.m(...)`` cannot be told from a pure
    # read, so it counts as both.
    facts = index.facts(node)
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
    calls = (facts.self_calls - _EMIT_METHODS) | {
        pumps[attr] for attr, m in facts.drives
        if attr in pumps and m in _PUMP_DRIVERS}
    stack.add(key)
    for callee in sorted(calls):
        sub = _footprint(index, cls, callee, cache, stack, pumps)
        fp.reads |= sub.reads
        fp.writes |= sub.writes
        fp.opaque |= sub.opaque
    stack.discard(key)
    cache[key] = fp
    return fp


def build_from_sources(sources) -> SummaryTable:
    """Summaries over ``(rel_path, source)`` pairs or a :class:`SourceIndex`."""
    index = SourceIndex.of(sources)
    cache: Dict[Tuple[str, str], HandlerFootprint] = {}
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
        summary = ClassSummary(cls=cls)
        for msg_type, method in sorted(bindings.items()):
            if method in ("<lambda>", "<dynamic>"):
                summary.handlers[msg_type] = HandlerFootprint(
                    method=method, opaque=True
                )
                continue
            summary.handlers[msg_type] = _footprint(
                index, cls, method, cache, set(), pumps
            )
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
