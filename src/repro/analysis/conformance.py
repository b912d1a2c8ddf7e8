"""Static protocol-conformance checker.

The actor protocol in this codebase is string-typed: a sender does
``self.send(dst, "config_update", ...)`` and the receiver must have
done ``self.register("config_update", handler)``.  Nothing checks the
two sides against each other until a message lands in
``Actor.on_unhandled`` at runtime — in a chaos soak that shows up as a
mysteriously hung recovery, not as a type error.  This pass extracts
both sides from the AST and reports the asymmetries:

* **sent-but-never-handled** — a request type some actor sends (via
  ``send``/``call``/``ClientPort.request``) that no actor anywhere
  registers a handler for: a typo or a missing handler (error);
* **registered-but-never-sent** — a handler no code path can reach:
  dead protocol surface (error, unless the registration is explicitly
  declared an external entry point with ``# protocol: external`` on the
  ``register`` line — e.g. an admin API driven from outside the actor
  system);
* **expected-but-never-produced** — a response type some callback
  compares against (``resp.type == "sync_state"``) that nothing ever
  ``respond``s with (warning).

Message types are mostly literal at the call site, but the framework
funnels many sends through parameterized helpers (``sync_recover(
"tail_sync_pull")`` → ``self.call(src, pull_type, ...)``).  The checker
therefore propagates string constants through call chains to a
fixpoint: any function that forwards a parameter into a send/respond
position becomes a *forwarder*, and constants at its call sites count
as sends — including multi-hop chains like ``handle_put`` →
``_accept_write(msg, "put")`` → ``datalet_call(op, ...)`` →
``self.call(target, type, ...)``.

Registrations driven by a loop over a literal tuple
(``for op in ("put", "get", "del"): self.register(op, ...)``) are
expanded.  Anything genuinely dynamic (``self.call(dst, msg.type)``
relays) is recorded as unresolvable and excluded from the asymmetry
checks rather than guessed at.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.source import (
    Site,
    SourceIndex,
    call_name,
    const_str,
    is_self,
    kwarg,
)

__all__ = ["ProtocolModel", "check_tree", "check_sources"]

#: methods that put their message-type argument on the wire, with the
#: positional index of that argument (``self`` excluded).  These are the
#: propagation seeds; everything else is discovered as a forwarder.
_SEND_SEEDS = {"send": 1, "call": 1}
_RESPOND_SEEDS = {"respond": 1}


@dataclass(frozen=True)
class Use:
    """One occurrence of a message type in a role."""

    type: str
    cls: str
    path: str
    line: int


@dataclass
class _Forwarder:
    """``method`` puts its parameter ``param`` on the wire when called."""

    method: str
    param: str
    index: int  # positional index at the *call site* (self stripped)
    kind: str  # "sent" | "responded"


@dataclass
class ProtocolModel:
    """Everything the checker learned about the message protocol."""

    registered: Dict[str, List[Use]] = field(default_factory=dict)
    sent: Dict[str, List[Use]] = field(default_factory=dict)
    responded: Dict[str, List[Use]] = field(default_factory=dict)
    #: response types that some callback pattern-matches on
    expected: Dict[str, List[Use]] = field(default_factory=dict)
    #: registered types declared as externally driven entry points
    external: Set[str] = field(default_factory=set)
    #: send/register sites whose type expression could not be resolved
    unresolved: List[Use] = field(default_factory=list)

    def _add(self, table: Dict[str, List[Use]], use: Use) -> bool:
        uses = table.setdefault(use.type, [])
        if any(u.cls == use.cls for u in uses):
            return False
        uses.append(use)
        return True

    # -- queries -------------------------------------------------------
    def senders(self, type: str) -> List[str]:
        return sorted({u.cls for u in self.sent.get(type, [])})

    def handlers(self, type: str) -> List[str]:
        return sorted({u.cls for u in self.registered.get(type, [])})

    def describe(self) -> str:
        """Per-type role table (handlers ← senders)."""
        lines = []
        for t in sorted(set(self.registered) | set(self.sent)):
            handlers = ", ".join(self.handlers(t)) or "-"
            senders = ", ".join(self.senders(t)) or "-"
            mark = " (external)" if t in self.external else ""
            lines.append(f"{t:22s} handlers: {handlers:40s} senders: {senders}{mark}")
        return "\n".join(lines)

    def findings(self) -> List[Finding]:
        out: List[Finding] = []
        response_types = set(self.responded)
        for t in sorted(set(self.sent) - set(self.registered)):
            for u in self.sent[t]:
                out.append(Finding(
                    path=u.path, line=u.line, rule="sent-unhandled",
                    message=f"message type {t!r} sent by {u.cls} but no "
                            "actor registers a handler for it",
                ))
        for t in sorted(set(self.registered) - set(self.sent)):
            suppressed = t in self.external
            for u in self.registered[t]:
                out.append(Finding(
                    path=u.path, line=u.line, rule="registered-unsent",
                    message=f"handler for {t!r} registered by {u.cls} but "
                            "nothing in the package ever sends it",
                    suppressed=suppressed,
                ))
        never_produced = (
            set(self.expected) - response_types - set(self.registered) - {"error", "ok"}
        )
        for t in sorted(never_produced):
            for u in self.expected[t]:
                out.append(Finding(
                    path=u.path, line=u.line, rule="expected-response-missing",
                    message=f"callback expects response type {t!r} but "
                            "nothing ever responds with it",
                    severity="warning",
                ))
        return out


def _classify(node: Optional[ast.expr], site: Site) -> Tuple[str, Optional[str]]:
    """``("const"|"param"|"other", value)`` of a type expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return ("const", node.value)
    if isinstance(node, ast.Name) and node.id in site.params:
        return ("param", node.id)
    return ("other", None)


def _argument(site: Site, index: int, name: str) -> Tuple[str, Optional[str]]:
    """Keyword ``name`` or positional ``index`` of a call, classified."""
    call = site.node
    expr = kwarg(call, name)
    if expr is None and 0 <= index < len(call.args):
        expr = call.args[index]
    return _classify(expr, site)


def _use(site: Site, type: str) -> Use:
    return Use(type=type, cls=site.cls, path=site.path, line=site.node.lineno)


def _forward(forwarders: Dict[str, List[_Forwarder]], site: Site,
             param: str, kind: str) -> bool:
    """The function enclosing ``site`` puts its parameter ``param`` on
    the wire; True when that is news."""
    fwd = _Forwarder(method=site.func, param=param,
                     index=site.params.index(param), kind=kind)
    bucket = forwarders.setdefault(site.func, [])
    if fwd in bucket:
        return False
    bucket.append(fwd)
    return True


def _wire(model: ProtocolModel, forwarders: Dict[str, List[_Forwarder]],
          site: Site, index: int, table: str) -> None:
    """A seed send/respond: record a constant type, or make the
    enclosing function a forwarder of the parameter it puts on the wire."""
    call = site.node
    positional = index < len(call.args)
    expr = call.args[index] if positional else kwarg(call, "type")
    if expr is None:
        return
    kind, value = _classify(expr, site)
    if kind == "const":
        model._add(getattr(model, table), _use(site, value))
    elif kind == "param":
        _forward(forwarders, site, value, table)
    else:
        dump = ast.dump(expr if positional else call)[:40]
        model.unresolved.append(_use(site, f"{table}:{dump}"))


def _expect(model: ProtocolModel, site: Site) -> None:
    """Collect ``resp.type == "x"`` / ``in ("x", "y")`` patterns."""
    node = site.node
    if not (isinstance(node.left, ast.Attribute) and node.left.attr == "type"
            and len(node.comparators) == 1):
        return
    comp = node.comparators[0]
    values: List[str] = []
    if const_str(comp) is not None:
        values = [comp.value]
    elif isinstance(comp, (ast.Tuple, ast.List, ast.Set)):
        values = [e.value for e in comp.elts if const_str(e) is not None]
    for v in values:
        model._add(model.expected, _use(site, v))


def _propagate(model: ProtocolModel, forwarders: Dict[str, List[_Forwarder]],
               calls: List[Site]) -> None:
    """Run constant propagation through forwarder call chains to a
    fixpoint (chains are short; the bound is just a safety net)."""
    for _ in range(12):
        changed = False
        for site in calls:
            for fwd in forwarders.get(call_name(site.node), []):
                kind, value = _argument(site, fwd.index, fwd.param)
                if kind == "const":
                    changed |= model._add(getattr(model, fwd.kind),
                                          _use(site, value))
                elif kind == "param":
                    changed |= _forward(forwarders, site, value, fwd.kind)
        if not changed:
            return


def check_sources(sources) -> ProtocolModel:
    """Analyze ``(rel_path, source)`` pairs (or a :class:`SourceIndex`)
    as one protocol universe."""
    index = SourceIndex.of(sources)
    model = ProtocolModel()
    for reg in index.registrations:
        if reg.types is None:
            model.unresolved.append(Use(
                f"register:{ast.dump(reg.expr)[:40]}", reg.cls, reg.path, reg.line))
        for t in reg.types or ():
            model._add(model.registered, Use(t, reg.cls, reg.path, reg.line))
            if reg.external:
                model.external.add(t)
    forwarders: Dict[str, List[_Forwarder]] = {}
    calls: List[Site] = []  # every call is a potential forwarder call site
    for site in index.sites:
        node = site.node
        if isinstance(node, ast.Compare):
            _expect(model, site)
            continue
        if call_name(node) is None:
            continue
        calls.append(site)
        if isinstance(node.func, ast.Attribute) and is_self(node.func.value):
            if node.func.attr in _SEND_SEEDS:
                _wire(model, forwarders, site, _SEND_SEEDS[node.func.attr], "sent")
            elif node.func.attr in _RESPOND_SEEDS:
                _wire(model, forwarders, site,
                      _RESPOND_SEEDS[node.func.attr], "responded")
    _propagate(model, forwarders, calls)
    return model


def check_tree(root: Path) -> ProtocolModel:
    """Conformance-check every ``*.py`` under the package root."""
    return check_sources(SourceIndex.from_root(root))
