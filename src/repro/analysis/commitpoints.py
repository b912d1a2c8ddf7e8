"""Static commit-point analysis: acks versus durable effects.

Every topology×consistency combo places its *commit point* — the moment
a write is durable relative to the moment the client sees an ack —
somewhere else.  This pass walks the real controlet/datalet source and,
per write-path handler chain, extracts the ordered sequence of

* **ack** effects — client-visible completions (``req.ack()``,
  ``req.finish(type)`` with a non-``"error"`` type, ``self.respond(msg,
  "<const non-error>")``),
* **durable** effects — WAL appends/syncs/snapshot installs and
  mutating engine calls (``self.datalet_call(op)`` for a non-read op,
  ``self.wal.append/sync/install_snapshot``, ``send(self.datalet,
  "apply_batch", ...)``),
* **repl** effects — replication fan-out sends/calls
  (:data:`REPL_TYPES`; ``log_append`` is *both* repl and durable — the
  shared log is an ordered durable medium).

and flags two rules:

``ack-before-durable``
    Some path acks the client with **no** durable effect before it: no
    non-deferred durable effect precedes the ack, the ack does not sit
    inside an awaited durable/replication completion callback, and it
    is not the settle-join of an armed fan-out.  A crash immediately
    after such an ack loses an acknowledged write.
``ack-before-replication``
    Some path issues replication effects the ack does not await
    (fire-and-forget fan-out after — or concurrent with — the client
    ack).  Legal by design exactly where a combo's contract says so
    (MS+EC master-acks-then-propagates), hence the waiver table below.

An awaited replication call counts as durability coverage
*compositionally*: the target's handler for that message type is itself
analyzed, so "I acked only after the peer confirmed ``chain_put_batch``"
inherits the peer's own ack-before-durable obligation.

Suppression is declarative and auditable, two mechanisms:

* the linter's line pragma ``# lint: allow[ack-before-durable]`` on (or
  one line above) the ack — used for the two buffer-catchup acks that
  are safe for protocol reasons the AST cannot see;
* the :data:`CONTRACTS` waiver table — the machine-readable durability
  contract per combo.  Each :class:`Waiver` names the controlet class,
  the rule, and the configuration that makes the pattern legal (e.g.
  MS+EC under ``wal_sync_every > 1`` group commit).

:func:`ack_durable_for` is the runtime face of the same table: given a
combo and ``wal_sync_every`` it answers "must a settled ack survive a
crash-restart?", replacing the chaos runner's inline heuristic and
feeding the model checker's recovery oracle.

The tracer is a path-forking abstract interpreter over the handler ASTs
(closures inlined at their registration sites with awaited-context
tokens, same-class helper calls inlined with a cycle guard, ``if``
forks both arms except the ``self.wal is not None`` durability guard,
loops traced once, ``set_timer`` callbacks and ``arm(..., then=...)``
joins deferred to the end of the handler turn).  It is deliberately
conservative: dynamic engine op names count as durable *writes*, and
dynamic ``finish`` types count as acks (the completion convention
forwards a successful response).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.source import (
    PATH_CAP,
    Closure,
    Raw,
    SourceIndex,
    arg_or_kw,
    const_str,
    is_self,
    kwarg,
    self_attr,
)
from repro.analysis.summaries import DATALET_READ_OPS

__all__ = [
    "REPL_TYPES",
    "WRITE_CHAIN_TYPES",
    "Waiver",
    "CommitContract",
    "CONTRACTS",
    "contract_for",
    "ack_durable_for",
    "analyze_sources",
    "analyze_tree",
]

#: message types that carry a client write through the system — the
#: handler entry points this pass traces.
WRITE_CHAIN_TYPES = {"put", "del", "chain_put_batch",
                     "peer_apply", "replicate", "apply_batch"}

#: message types whose send/call constitutes replication fan-out.
#: ``log_append``/``log_append_batch`` are also durable: the shared log
#: actor is an ordered durable medium, not a crashable data host in the
#: fault model.
REPL_TYPES = {"chain_put_batch", "replicate", "peer_apply",
              "log_append", "log_append_batch"}

#: classes (by name-based ancestry) the pass analyzes; anything else —
#: e.g. the baseline ``P2PNode`` — is out of the durability contract.
_ANALYZED_BASES = ("Controlet", "DataletActor")

#: the protocol portion of the package :func:`analyze_tree` covers.
COMMIT_TREE = ("core/", "datalet/")

# ----------------------------------------------------------------------
# The per-combo durability contract
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Waiver:
    """One declared-legal analyzer finding: ``cls``'s ``rule`` pattern
    is part of the combo's contract for the ``condition`` stated."""

    cls: str
    rule: str
    condition: str
    reason: str


@dataclass(frozen=True)
class CommitContract:
    """Machine-readable commit point of one topology×consistency combo."""

    combo: str
    controlet: str
    #: where on the write path the client ack is issued.
    ack_point: str
    #: is every replication effect awaited before the ack?
    replication_awaited: bool
    #: condition under which a settled ack survives a crash-restart of
    #: any single data host ("always" or a config predicate).
    ack_durable_when: str
    waivers: Tuple[Waiver, ...] = ()


CONTRACTS: Tuple[CommitContract, ...] = (
    CommitContract(
        combo="ms-sc",
        controlet="MSStrongControlet",
        ack_point="tail of the chain, after every replica (head..tail) "
                  "applied-and-logged the write",
        replication_awaited=True,
        ack_durable_when="always (any single-host crash is covered by the "
                         "surviving chain replicas, even under group commit)",
    ),
    CommitContract(
        combo="ms-ec",
        controlet="MSEventualControlet",
        ack_point="master, after its local apply+WAL append; slave "
                  "propagation is asynchronous",
        replication_awaited=False,
        ack_durable_when="wal_sync_every == 1 (the master's fsync is the "
                         "only durable copy at ack time; group commit may "
                         "lose the unsynced tail)",
        waivers=(
            Waiver(
                cls="MSEventualControlet",
                rule="ack-before-replication",
                condition="combo ms-ec, any wal_sync_every",
                reason="MS+EC's commit point *is* the master's local "
                       "apply: replicate batches flush to slaves after "
                       "the ack by design (§IV availability/throughput "
                       "trade).  Durability of the ack itself is the "
                       "master WAL's job — guaranteed iff "
                       "wal_sync_every == 1, see ack_durable_for().",
            ),
        ),
    ),
    CommitContract(
        combo="aa-sc",
        controlet="AAStrongControlet",
        ack_point="initiating replica, at the settle-join after every "
                  "replica (itself included) confirmed peer_apply under "
                  "the DLM write lock",
        replication_awaited=True,
        ack_durable_when="always (full fan-out is awaited; any surviving "
                         "replica re-seeds a recovering host)",
    ),
    CommitContract(
        combo="aa-ec",
        controlet="AAEventualControlet",
        ack_point="serving replica, after the shared-log append was "
                  "confirmed and the local apply completed",
        replication_awaited=True,
        ack_durable_when="always (the shared log orders and retains every "
                         "acked write; replay re-delivers after a crash)",
    ),
    CommitContract(
        combo="hybrid",
        controlet="AAMSHybridControlet",
        ack_point="as aa-ec (the hybrid write path is the shared-log "
                  "append; MS-style slave fan-out rides the log cursor)",
        replication_awaited=True,
        ack_durable_when="always (shared-log retention, as aa-ec)",
    ),
)

_CONTRACTS_BY_COMBO = {c.combo: c for c in CONTRACTS}
ALL_WAIVERS: Tuple[Waiver, ...] = tuple(
    w for c in CONTRACTS for w in c.waivers
)


def contract_for(combo: str) -> CommitContract:
    try:
        return _CONTRACTS_BY_COMBO[combo]
    except KeyError:
        raise KeyError(f"no commit-point contract for combo {combo!r}")


def ack_durable_for(combo: str, wal_sync_every: int = 1) -> bool:
    """Must a settled (client-acked) write survive a crash-restart of a
    single data host?  The runtime face of :data:`CONTRACTS`, consumed
    by the chaos runner and the recovery-aware model checker."""
    contract = contract_for(combo)
    if contract.ack_durable_when.startswith("always"):
        return True
    # the only conditional contract today: ms-ec group commit
    return wal_sync_every == 1


# ----------------------------------------------------------------------
# effect-trace tracer
# ----------------------------------------------------------------------

@dataclass
class _Effect:
    kinds: Set[str]            # subset of {"ack", "durable", "repl"}
    eid: int
    file: str
    line: int
    desc: str
    deferred: bool = False
    covered: Set[int] = field(default_factory=set)   # acks: awaited ids
    awaited_durable: bool = False                     # acks: durable cover


class _PathCtx:
    __slots__ = ("effects", "env", "deferred", "armed")

    def __init__(self):
        self.effects: List[_Effect] = []
        self.env: Dict[str, object] = {}
        # queue of ("call", Closure) | ("arm-then", Closure, line, file)
        #          | ("arm-default", line, file)
        self.deferred: List[tuple] = []
        self.armed: Set[int] = set()

    def clone(self) -> "_PathCtx":
        c = _PathCtx()
        c.effects = list(self.effects)
        c.env = dict(self.env)
        c.deferred = list(self.deferred)
        c.armed = set(self.armed)
        return c


@dataclass(frozen=True)
class _Frame:
    cls: str                    # concrete class (virtual dispatch target)
    file: str                   # file of the code being walked
    covered: frozenset          # awaited effect ids (callback nesting)
    awaited_durable: bool       # a durable/repl completion is awaited
    deferred: bool = False      # inside a timer/arm deferred execution


def _is_wal_test(test: ast.expr):
    """``self.wal is not None`` -> "present"; ``self.wal is None`` ->
    "absent"; anything else -> None (fork both arms)."""
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
            and self_attr(test.left) == "wal"):
        if isinstance(test.ops[0], ast.IsNot):
            return "present"
        if isinstance(test.ops[0], ast.Is):
            return "absent"
    return None


class _Tracer:
    """Path-forking walk of one entry handler on one concrete class."""

    def __init__(self, index: SourceIndex, cls: str, entry: str):
        self.index = index
        self.cls = cls
        self.entry = entry
        self._eid = 0
        self._inline: Set[Tuple[str, str]] = set()  # (cls, method) guard
        #: ``self.<attr> = Pump(self.<issue>)`` bindings: pushing onto a
        #: pump runs its issue callable, which is where the write path
        #: continues.
        self._pumps = index.pumps(cls)

    # -- helpers -------------------------------------------------------

    def _resolve(self, cls: str, name: str):
        """(funcdef, defining file) along ``cls``'s ancestry."""
        fn, owner = self.index.resolve(cls, name)
        return fn, (self.index.file_of(owner) if fn is not None else None)

    def _next(self) -> int:
        self._eid += 1
        return self._eid

    def _effect(self, ctx, frame, node, kinds, desc) -> _Effect:
        e = _Effect(kinds=set(kinds), eid=self._next(), file=frame.file,
                    line=getattr(node, "lineno", 0), desc=desc,
                    deferred=frame.deferred)
        ctx.effects.append(e)
        return e

    def _ack(self, ctx, frame, node, desc) -> None:
        e = self._effect(ctx, frame, node, {"ack"}, desc)
        e.covered, e.awaited_durable = set(frame.covered), frame.awaited_durable

    def _repl(self, ctx, frame, node, msg_type, verb) -> _Effect:
        kinds = ({"repl", "durable"}
                 if msg_type in ("log_append", "log_append_batch") else {"repl"})
        return self._effect(ctx, frame, node, kinds, f"{verb}({msg_type})")

    def _resolve_callable(self, node, ctx, frame) -> Optional[Closure]:
        if isinstance(node, ast.Lambda):
            return Closure(node, dict(ctx.env), file=frame.file)
        if isinstance(node, ast.Name):
            val = ctx.env.get(node.id)
            if isinstance(val, Closure):
                return val
            return None
        if self_attr(node) is not None:
            fn, file = self._resolve(frame.cls, node.attr)
            if fn is not None:
                return Closure(fn, {}, file=file)
        return None

    # -- statement walk ------------------------------------------------

    def _walk_block(self, stmts, ctx, frame):
        outs = [(ctx, "fell")]
        for stmt in stmts:
            nxt = []
            for c, status in outs:
                if status != "fell":
                    nxt.append((c, status))
                    continue
                nxt.extend(self._walk_stmt(stmt, c, frame))
            outs = nxt[:PATH_CAP]
        return outs

    def _walk_stmt(self, stmt, ctx, frame):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ctx.env[stmt.name] = Closure(stmt, dict(ctx.env), file=frame.file)
            return [(ctx, "fell")]
        if isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, ast.Call):
                return self._do_call(stmt.value, ctx, frame)
            return [(ctx, "fell")]
        if isinstance(stmt, ast.Assign):
            return self._do_assign(stmt, ctx, frame)
        if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            tgt = stmt.target
            if isinstance(tgt, ast.Name):
                ctx.env.pop(tgt.id, None)
            return [(ctx, "fell")]
        if isinstance(stmt, ast.Return):
            if isinstance(stmt.value, ast.Call):
                results = self._do_call(stmt.value, ctx, frame)
                return [(c, "return" if st == "fell" else st)
                        for c, st in results]
            return [(ctx, "return")]
        if isinstance(stmt, ast.Raise):
            return [(ctx, "ended")]
        if isinstance(stmt, (ast.Break, ast.Continue)):
            # ending the path keeps skip-iterations (e.g. apply_batch's
            # continue on a malformed op) from reaching post-loop acks
            # without their durable effects — the fall-through fork
            # covers the post-loop code.
            return [(ctx, "ended")]
        if isinstance(stmt, ast.If):
            return self._do_if(stmt, ctx, frame)
        if isinstance(stmt, (ast.For, ast.While)):
            # trace the body exactly once, then fall through
            return self._walk_block(list(stmt.body), ctx, frame)
        if isinstance(stmt, ast.Try):
            return self._do_try(stmt, ctx, frame)
        if isinstance(stmt, ast.With):
            return self._walk_block(list(stmt.body), ctx, frame)
        return [(ctx, "fell")]

    def _do_assign(self, stmt, ctx, frame):
        value = stmt.value
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        if isinstance(value, ast.Lambda):
            for n in names:
                ctx.env[n] = Closure(value, dict(ctx.env), file=frame.file)
            return [(ctx, "fell")]
        if isinstance(value, ast.Name) and value.id in ctx.env:
            for n in names:
                ctx.env[n] = ctx.env[value.id]
            return [(ctx, "fell")]
        for n in names:
            ctx.env.pop(n, None)
        if isinstance(value, ast.Call):
            return self._do_call(value, ctx, frame)
        return [(ctx, "fell")]

    def _do_if(self, stmt, ctx, frame):
        wal = _is_wal_test(stmt.test)
        if wal == "present":
            branches = [list(stmt.body)]
        elif wal == "absent":
            branches = [list(stmt.orelse)]
        else:
            branches = [list(stmt.body), list(stmt.orelse)]
        results = []
        for b in branches:
            results.extend(self._walk_block(b, ctx.clone(), frame))
        return results[:PATH_CAP]

    def _do_try(self, stmt, ctx, frame):
        # fork 1: body runs to completion; fork N: body ran fully, then
        # a handler ran (keeps durable effects that precede the raise
        # point — modeling the raise at body start would lose them).
        forks = [list(stmt.body)]
        for h in stmt.handlers:
            forks.append(list(stmt.body) + list(h.body))
        results = []
        for f in forks:
            for c, st in self._walk_block(f, ctx.clone(), frame):
                if stmt.finalbody and st == "fell":
                    results.extend(
                        self._walk_block(list(stmt.finalbody), c, frame))
                else:
                    results.append((c, st))
        return results[:PATH_CAP]

    # -- calls ---------------------------------------------------------

    def _do_call(self, node, ctx, frame):
        f = node.func
        if isinstance(f, ast.Attribute):
            if is_self(f.value):
                return self._do_self_call(node, f.attr, ctx, frame)
            owner = self_attr(f.value)
            if owner is not None:
                if owner == "wal" and f.attr in (
                        "append", "sync", "install_snapshot"):
                    self._effect(ctx, frame, node, {"durable"},
                                 f"self.wal.{f.attr}()")
                elif f.attr == "push" and owner in self._pumps:
                    return self._do_self_call(
                        node, self._pumps[owner], ctx, frame)
                return [(ctx, "fell")]
            # request-completion convention on any other receiver
            return self._do_completion(node, f.attr, ctx, frame)
        if isinstance(f, ast.Name):
            target = ctx.env.get(f.id)
            if isinstance(target, Closure):
                return self._inline_callable(target, node, ctx, frame)
            return [(ctx, "fell")]
        return [(ctx, "fell")]

    def _do_completion(self, node, attr, ctx, frame):
        if attr == "ack":
            self._ack(ctx, frame, node, ".ack()")
        elif attr == "finish":
            t = const_str(arg_or_kw(node, 0, "type"))
            # a dynamic type forwards a (usually successful) upstream
            # response — the completion convention makes it an ack
            if t != "error":
                self._ack(ctx, frame, node,
                          f".finish({t!r})" if t else ".finish(<dynamic>)")
        elif attr == "arm":
            then = kwarg(node, "then")
            if then is None and len(node.args) > 1:
                then = node.args[1]
            cb = self._resolve_callable(then, ctx, frame)
            if cb is not None:
                ctx.deferred.append(("arm-then", cb,
                                     getattr(node, "lineno", 0), frame.file))
            else:
                ctx.deferred.append(("arm-default",
                                     getattr(node, "lineno", 0), frame.file))
        # .fail() / .settle() are not client-success completions
        return [(ctx, "fell")]

    def _do_self_call(self, node, attr, ctx, frame):
        if attr in ("respond",):
            t = const_str(arg_or_kw(node, 1, "type"))
            if t is not None and t != "error":
                self._ack(ctx, frame, node, f'self.respond(_, "{t}")')
            return [(ctx, "fell")]
        if attr == "datalet_call" and not self._overridden(frame.cls, attr):
            op = const_str(arg_or_kw(node, 0, "type"))
            effect = None
            if op is None or op not in DATALET_READ_OPS:
                effect = self._effect(
                    ctx, frame, node, {"durable"},
                    f"datalet_call({op or '<dynamic>'})")
            return self._after_emit(node, ctx, frame, effect)
        if attr == "call":
            t = const_str(arg_or_kw(node, 1, "type"))
            effect = (self._repl(ctx, frame, node, t, "call")
                      if t in REPL_TYPES else None)
            return self._after_emit(node, ctx, frame, effect)
        if attr == "send":
            t = const_str(arg_or_kw(node, 1, "type"))
            tgt = arg_or_kw(node, 0, "target")
            if t in REPL_TYPES:
                self._repl(ctx, frame, node, t, "send")
            elif (self_attr(tgt) == "datalet"
                    and (t is None or t not in DATALET_READ_OPS)):
                self._effect(ctx, frame, node, {"durable"},
                             f"send(self.datalet, {t or '<dynamic>'})")
            return [(ctx, "fell")]
        if attr == "set_timer":
            cb = self._resolve_callable(arg_or_kw(node, 1, "callback"), ctx, frame)
            if cb is not None:
                ctx.deferred.append(("call", cb))
            return [(ctx, "fell")]
        if attr in ("register", "emit", "forward", "transmit", "now",
                    "loop_phase"):
            return [(ctx, "fell")]
        if attr == "_enqueue_down":
            # The ms-sc link pump has two completions, both modeled:
            #
            # * a successor exists — the entry rides an awaited
            #   ``chain_put_batch`` call downstream (one frame in
            #   flight per link) and ``done`` fires only once the
            #   chain suffix acked; semantically
            #   ``self.call(succ, "chain_put_batch", entry,
            #   callback=done)``.
            # * this node is the tail — ``done`` fires immediately
            #   with no replication effect at all, so any ack inside
            #   it must already be covered by the caller's own durable
            #   effects (the local apply).  Skipping this fork would
            #   hide injections that defer the apply and ack at the
            #   tail.
            cb = self._resolve_callable(arg_or_kw(node, 1, "done"), ctx, frame)
            tail_ctx = ctx.clone()
            effect = self._effect(ctx, frame, node, {"repl"},
                                  "enqueue_down(chain_put_batch)")
            if cb is None:
                return [(ctx, "fell")]
            sub = replace(frame, file=cb.file,
                          covered=frame.covered | {effect.eid},
                          awaited_durable=True)
            return (self._walk_callable(cb, ctx, sub)
                    + self._walk_callable(cb, tail_ctx,
                                          replace(frame, file=cb.file)))
        # generic same-class helper: inline with parameter binding
        fn, file = self._resolve(frame.cls, attr)
        if fn is None:
            return [(ctx, "fell")]
        key = (frame.cls, attr)
        if key in self._inline:
            return [(ctx, "fell")]
        self._inline.add(key)
        try:
            env: Dict[str, object] = {}
            params = [a.arg for a in fn.args.args[1:]]  # skip self
            for i, arg in enumerate(node.args):
                if i < len(params):
                    v = self._resolve_callable(arg, ctx, frame)
                    if v is not None:
                        env[params[i]] = v
            for k in node.keywords:
                if k.arg in params:
                    v = self._resolve_callable(k.value, ctx, frame)
                    if v is not None:
                        env[k.arg] = v
            return self._walk_sub(fn.body, ctx, env, replace(frame, file=file))
        finally:
            self._inline.discard(key)

    def _overridden(self, cls, attr) -> bool:
        """A subclass replaced the framework primitive ``attr``: the
        override is protocol code and is traced like any helper."""
        fn, _owner = self.index.resolve(cls, attr)
        base = self.index.classes.get("Controlet")
        return (fn is not None and base is not None
                and fn is not base.methods.get(attr))

    def _after_emit(self, node, ctx, frame, effect):
        """Inline an emit's completion callback with awaited tokens."""
        cb = self._resolve_callable(kwarg(node, "callback"), ctx, frame)
        if cb is None:
            return [(ctx, "fell")]
        if effect is not None and "settle" in self.index.facts(cb.node).calls:
            ctx.armed.add(effect.eid)
        covered = frame.covered
        awaited = frame.awaited_durable
        if effect is not None:
            covered = frame.covered | {effect.eid}
            # an awaited repl counts compositionally: the peer's own
            # handler for that type carries the durability obligation
            awaited = True
        sub = replace(frame, file=cb.file, covered=covered,
                      awaited_durable=awaited)
        return self._walk_callable(cb, ctx, sub)

    def _inline_callable(self, target, node, ctx, frame):
        """A bound closure called by name (e.g. ``body()`` inside the
        DLM lock grant)."""
        return self._walk_callable(target, ctx,
                                   replace(frame, file=target.file))

    def _walk_callable(self, cb: Closure, ctx, frame):
        env = dict(cb.env)
        for p in cb.params():
            env.pop(p, None)
        return self._walk_sub(cb.body(), ctx, env, frame)

    def _walk_sub(self, body, ctx, env, frame):
        """Walk a nested frame: swap ``env`` in, restore the caller's
        bindings on every resulting path; the frame's ``return``
        resumes the caller."""
        saved = ctx.env
        ctx.env = env
        out = []
        for c, st in self._walk_block(body, ctx, frame):
            c.env = saved if c is ctx else dict(saved)
            out.append((c, "fell" if st == "return" else st))
        ctx.env = saved
        return out

    # -- deferred drain ------------------------------------------------

    def _drain(self, ctx) -> List[_PathCtx]:
        out: List[_PathCtx] = []
        stack = [ctx]
        while stack and len(out) < PATH_CAP:
            c = stack.pop()
            if not c.deferred:
                out.append(c)
                continue
            item = c.deferred.pop(0)
            if item[0] == "arm-default":
                _, line, file = item
                c.effects.append(_Effect(
                    kinds={"ack"}, eid=self._next(), file=file, line=line,
                    desc="arm() default join ack", deferred=True,
                    covered=set(c.armed), awaited_durable=bool(c.armed)))
                stack.append(c)
                continue
            if item[0] == "arm-then":
                _, cb, _line, _file = item
                frame = _Frame(self.cls, cb.file,
                               covered=frozenset(c.armed),
                               awaited_durable=bool(c.armed), deferred=True)
            else:  # "call" (timer): a fresh turn, no awaited context
                cb = item[1]
                frame = _Frame(self.cls, cb.file, covered=frozenset(),
                               awaited_durable=False, deferred=True)
            for c2, _st in self._walk_callable(cb, c, frame):
                stack.append(c2)
        return out

    # -- top level -----------------------------------------------------

    def trace(self, method: str) -> List[_PathCtx]:
        fn, file = self._resolve(self.cls, method)
        if fn is None:
            return []
        self._inline.add((self.cls, method))
        ctx = _PathCtx()
        frame = _Frame(self.cls, file, covered=frozenset(),
                       awaited_durable=False)
        paths: List[_PathCtx] = []
        for c, _st in self._walk_block(list(fn.body), ctx, frame):
            paths.extend(self._drain(c))
        return paths[:PATH_CAP]


# ----------------------------------------------------------------------
# entry discovery + rule evaluation
# ----------------------------------------------------------------------

def _entries(index: SourceIndex, cls: str) -> Dict[str, str]:
    """Write-path entry methods for a concrete class."""
    out: Dict[str, str] = {}
    for t, method in index.handlers(cls).items():
        if t not in WRITE_CHAIN_TYPES or method in ("<lambda>", "<dynamic>"):
            continue
        if method == "_client_op":
            # the generic dispatcher resolves put/del onto handle_* hooks
            method = {"put": "handle_put", "del": "handle_del"}.get(t, "")
            if not method:
                continue
        out[t] = method
    return out


def _evaluate(index: SourceIndex, cls: str) -> List[Raw]:
    raws: List[Raw] = []
    for msg_type, method in sorted(_entries(index, cls).items()):
        tracer = _Tracer(index, cls, msg_type)
        for path in tracer.trace(method):
            for i, e in enumerate(path.effects):
                if "ack" not in e.kinds:
                    continue
                durable_prefix = any(
                    "durable" in p.kinds and not p.deferred
                    for p in path.effects[:i]
                )
                if not (durable_prefix or e.awaited_durable):
                    raws.append(Raw(
                        e.file, e.line, "ack-before-durable",
                        f"{cls} [{msg_type}]: client ack ({e.desc}) can "
                        "precede every durable effect on this path — a "
                        "crash right after the ack loses an acknowledged "
                        "write", cls))
                uncovered = sorted({
                    p.desc for p in path.effects
                    if "repl" in p.kinds and p.eid not in e.covered
                })
                if uncovered:
                    raws.append(Raw(
                        e.file, e.line, "ack-before-replication",
                        f"{cls} [{msg_type}]: ack ({e.desc}) does not "
                        f"await replication effect(s) "
                        f"{', '.join(uncovered)} issued on this path", cls))
    return raws


def analyze_sources(
    sources,
    allowlist: Optional[Dict[str, Set[str]]] = None,
    waivers: Sequence[Waiver] = ALL_WAIVERS,
) -> List[Finding]:
    """Run the commit-point pass over ``(rel_path, source)`` pairs or a
    :class:`SourceIndex`."""
    index = SourceIndex.of(sources)
    raws: List[Raw] = []
    for cls in sorted(index.classes):
        anc = index.ancestry(cls)
        if any(any(b in a for b in _ANALYZED_BASES) for a in anc):
            raws.extend(_evaluate(index, cls))
    # forked paths and sibling classes rediscover the same ack
    return index.findings(raws, allowlist, waivers, tag="contract waiver")


def analyze_tree(root: Path,
                 allowlist: Optional[Dict[str, Set[str]]] = None) -> List[Finding]:
    """Commit-point findings for the protocol portion of the package
    (:data:`COMMIT_TREE` — injection subclasses under ``analysis/``
    are analyzed only when passed to :func:`analyze_sources` directly,
    e.g. by the seeded must-fail regression test)."""
    return analyze_sources(SourceIndex.from_root(root, *COMMIT_TREE),
                           allowlist=allowlist)
