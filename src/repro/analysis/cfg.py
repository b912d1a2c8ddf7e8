"""Per-handler control-flow extraction for the flow-control passes.

The flow analyzer (:mod:`repro.analysis.flow`) needs to answer
path-sensitive questions about controlet hot paths — "does every path
out of this busy-flag acquisition release the flag, *including* the RPC
error/timeout callback?" — which the flat read/write summaries of
:mod:`repro.analysis.summaries` cannot express.  This module provides
the missing machinery: a walker that linearizes a method body into
execution *paths* (sequences of :class:`Step` events), forking at
branches and following the asynchronous continuation structure the
actor fabric imposes:

* ``self.call(..., callback=cb)`` / ``self.datalet_call(..., callback=cb)``
  — the callback is inlined **in line** with the emitting path: its
  statements are the path's future, executed at response/timeout time.
* ``self.helper(...)`` — same-class (inheritance-resolved) methods are
  inlined with parameters bound, so closures threaded through helpers
  (``refresh_shard(then=resume)``) keep their identity.
* ``self.set_timer(delay, cb)`` — recorded as a :class:`Step` of kind
  ``defer``; timer continuations run in a later turn, so the flow
  passes treat them as separate discharge sites rather than splicing
  them into the acquiring path (see the defer-discharge rule in
  flow.py).
* closures parked into containers or passed to unresolvable calls are
  inlined optimistically exactly once per path — a continuation handed
  to a drained queue is invoked by whatever pump drains it.

Branch tests are classified **strict** or **lenient**: a test that
reads ``self`` state or a (callback) parameter — the shape of an RPC
error arm — forks the path and every arm must satisfy its obligations;
a test over purely local data (join counters like ``state["left"]``)
forks too, but an arm that bails out early is marked *abandoned* and
exempt, because local-data joins re-fire until the fall-through arm
runs.  This keeps fan-in completion counters from producing false
leaks while still catching ``if err is None: release()``.

Class collection, ancestry and method resolution come from the shared
:class:`~repro.analysis.source.SourceIndex`, so every static analyzer
sees the same class universe.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.source import (
    PATH_CAP,
    Closure,
    SourceIndex,
    arg_or_kw,
    const_str,
    kwarg,
    self_attr,
)

__all__ = [
    "Step",
    "Path",
    "PumpBinding",
    "FlowWalker",
    "walk_method",
]

#: emitting methods of the actor fabric (``callback=`` = continuation).
_EMITS = {"send", "call", "respond", "forward", "redirect", "datalet_call"}

#: container mutators the flow passes care about.
_APPEND_METHODS = {"append", "extend", "insert", "appendleft"}
_DRAIN_METHODS = {"pop", "popleft", "clear"}


@dataclass
class Step:
    """One observable event on an execution path.

    Kinds: ``flag-set``/``flag-clear`` (busy-token transitions),
    ``append``/``drain``/``requeue``/``bound`` (queue discipline),
    ``pump-new``/``pump-push``/``pump-requeue``
    (:class:`repro.core.controlet.Pump` usage), ``emit``/``respond``
    (message out; detail = ``primitive:type``), ``defer`` (timer arm;
    ``closure`` = the continuation), ``rid-strip`` (dedup identity
    dropped from a payload), ``done-call`` (a pump issue callable
    invoking its completion continuation), ``attr-assign`` (other
    self-attribute store), ``reenter`` (cycle-guarded re-entry of a
    frame already on the inline stack).
    """

    kind: str
    detail: str = ""
    line: int = 0
    in_callback: bool = False
    file: str = ""
    closure: Optional["Closure"] = None


@dataclass
class Path:
    steps: List[Step] = field(default_factory=list)
    #: ended inside a lenient (local-data join) early-out arm: exempt
    #: from liveness obligations — the join re-fires until the
    #: fall-through arm runs.
    abandoned: bool = False


class _Alias:
    """Local name aliasing a self container attribute."""

    __slots__ = ("attr",)

    def __init__(self, attr: str):
        self.attr = attr


class _CbParam:
    """Marker: name bound as a callback/handler parameter (tests over
    these are strict — they model response/error/timeout arms)."""

    __slots__ = ()


class _DoneParam:
    """Marker: the completion continuation of a pump issue callable;
    invoking it emits a ``done-call`` step."""

    __slots__ = ()


CBPARAM = _CbParam()
DONE = _DoneParam()


@dataclass
class PumpBinding:
    """One ``Pump(...)`` construction site."""

    cls: str
    attr: str
    issue: Optional[Closure]
    line: int
    file: str


class _Ctx:
    """One in-flight path during the walk."""

    __slots__ = ("steps", "env", "ended", "abandoned", "inlined")

    def __init__(self):
        self.steps: List[Step] = []
        self.env: Dict[str, Any] = {}
        self.ended = False
        self.abandoned = False
        #: closure node ids already spliced into this path (cycle guard).
        self.inlined: set = set()

    def fork(self) -> "_Ctx":
        c = _Ctx()
        c.steps = list(self.steps)
        c.env = dict(self.env)
        c.ended = self.ended
        c.abandoned = self.abandoned
        c.inlined = set(self.inlined)
        return c


def _is_empty_container(node: ast.expr) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, (ast.List, ast.Set, ast.Tuple)):
        return not node.elts
    return False


def looks_like_flag(attr: str) -> bool:
    """Busy-token attribute names: one-in-flight / armed-timer tokens."""
    lowered = attr.lower()
    return any(tok in lowered for tok in ("busy", "armed", "pending", "inflight"))


class FlowWalker:
    """Path extraction for one method, with interprocedural inlining."""

    def __init__(self, table: SourceIndex, cls: str):
        self.table = table
        self.cls = cls
        #: (class, method) frames currently inlined (cycle guard).
        self.active: set = set()
        self.in_callback = False
        self._file = table.file_of(cls)
        #: Pump constructions observed during the walk.
        self.pumps: List[PumpBinding] = []

    # -- entry points ---------------------------------------------------
    def walk(self, funcdef, seed_env: Optional[Dict[str, Any]] = None) -> List[Path]:
        """Linearize a method body into paths."""
        return self.walk_closure(Closure(funcdef, {}), seed_env)

    def walk_closure(self, closure: Closure,
                     seed_env: Optional[Dict[str, Any]] = None) -> List[Path]:
        """Linearize a closure (deferred continuation / pump issue
        callable) with its captured environment re-seeded."""
        ctx = _Ctx()
        ctx.env = dict(closure.env)
        for p in closure.params():
            ctx.env[p] = CBPARAM
        if seed_env:
            ctx.env.update(seed_env)
        saved_file = self._file
        if closure.file:
            self._file = closure.file
        key = (self.cls, closure.name)
        self.active.add(key)
        try:
            done = self._walk_block(closure.body(), [ctx])
        finally:
            self.active.discard(key)
            self._file = saved_file
        return [Path(steps=c.steps, abandoned=c.abandoned) for c in done]

    # -- step helper ----------------------------------------------------
    def _step(self, kind: str, detail: str, line: int,
              closure: Optional[Closure] = None) -> Step:
        return Step(kind, detail, line, self.in_callback, self._file, closure)

    # -- statement dispatch ---------------------------------------------
    def _walk_block(self, stmts: List[ast.stmt], ctxs: List[_Ctx]) -> List[_Ctx]:
        for stmt in stmts:
            nxt: List[_Ctx] = []
            for ctx in ctxs:
                if ctx.ended:
                    nxt.append(ctx)
                    continue
                nxt.extend(self._walk_stmt(stmt, ctx))
                if len(nxt) >= PATH_CAP:
                    nxt = nxt[:PATH_CAP]
                    break
            ctxs = nxt
        return ctxs

    def _walk_stmt(self, stmt: ast.stmt, ctx: _Ctx) -> List[_Ctx]:
        if isinstance(stmt, ast.Assign):
            return self._do_assign(stmt, ctx)
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            fake = ast.Assign(targets=[stmt.target], value=stmt.value)
            ast.copy_location(fake, stmt)
            return self._do_assign(fake, ctx)
        if isinstance(stmt, ast.AugAssign):
            return [ctx]
        if isinstance(stmt, ast.Delete):
            return self._do_delete(stmt, ctx)
        if isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, ast.Await):
                value = value.value
            if isinstance(value, ast.Call):
                return self._do_call(value, ctx)
            return [ctx]
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ctx.env[stmt.name] = Closure(stmt, dict(ctx.env), stmt.name,
                                         self._file)
            return [ctx]
        if isinstance(stmt, (ast.Return, ast.Raise)):
            out = [ctx]
            if isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Call):
                out = self._do_call(stmt.value, ctx)
            for c in out:
                c.ended = True
            return out
        if isinstance(stmt, ast.If):
            return self._do_if(stmt, ctx)
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            # loop bodies are traced once: the passes reason about the
            # per-iteration obligations, not iteration counts
            return self._walk_block(list(stmt.body) + list(stmt.orelse), [ctx])
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._walk_block(list(stmt.body), [ctx])
        if isinstance(stmt, ast.Try):
            out = self._walk_block(list(stmt.body), [ctx])
            return self._walk_block(list(stmt.finalbody), out)
        return [ctx]

    # -- assignments -----------------------------------------------------
    def _do_assign(self, stmt: ast.Assign, ctx: _Ctx) -> List[_Ctx]:
        value = stmt.value
        ctxs = [ctx]
        if isinstance(value, ast.Call):
            ctxs = self._do_call(value, ctx, assigned=True)
        out: List[_Ctx] = []
        for c in ctxs:
            for target in stmt.targets:
                if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) \
                        and len(target.elts) == len(value.elts):
                    for t, v in zip(target.elts, value.elts):
                        self._assign_one(t, v, stmt, c)
                else:
                    self._assign_one(target, value, stmt, c)
            out.append(c)
        return out

    def _assign_one(self, target: ast.expr, value: ast.expr,
                    stmt: ast.stmt, ctx: _Ctx) -> None:
        line = stmt.lineno
        attr = self_attr(target)
        if attr is not None:
            self._assign_self_attr(attr, value, line, ctx)
            return
        if isinstance(target, ast.Subscript):
            base_attr = self._container_attr(target.value, ctx)
            if base_attr is None:
                return
            if isinstance(target.slice, ast.Slice):
                lower = target.slice.lower
                if lower is None or (isinstance(lower, ast.Constant)
                                     and lower.value == 0):
                    # queue[:0] = batch — retry-requeue at the front
                    ctx.steps.append(self._step("requeue", base_attr, line))
            return
        if isinstance(target, ast.Name):
            src_attr = self_attr(value)
            if src_attr is not None:
                ctx.env[target.id] = _Alias(src_attr)
                return
            if isinstance(value, ast.Lambda):
                ctx.env[target.id] = Closure(value, dict(ctx.env), target.id,
                                             self._file)
                return
            if isinstance(value, ast.Name) and value.id in ctx.env:
                ctx.env[target.id] = ctx.env[value.id]
                return
            if isinstance(value, ast.Call):
                alias = self._aliasing_call(value, ctx)
                if alias is not None:
                    ctx.env[target.id] = alias
                    return
                if isinstance(value.func, ast.Name) and value.func.id == "Pump":
                    self._record_pump(target.id, value, stmt.lineno, ctx)
                    return
            if isinstance(value, ast.Subscript):
                base_attr = self._container_attr(value.value, ctx)
                if base_attr is not None:
                    ctx.env[target.id] = _Alias(base_attr)
                    return
            ctx.env.pop(target.id, None)

    def _assign_self_attr(self, attr: str, value: ast.expr, line: int,
                          ctx: _Ctx) -> None:
        if isinstance(value, ast.Constant) and looks_like_flag(attr):
            if value.value is True:
                ctx.steps.append(self._step("flag-set", attr, line))
                return
            if value.value is False:
                ctx.steps.append(self._step("flag-clear", attr, line))
                return
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id == "Pump":
                self._record_pump(attr, value, line, ctx)
                return
            if value.func.id == "deque" and any(
                    k.arg == "maxlen" and not (
                        isinstance(k.value, ast.Constant)
                        and k.value.value is None)
                    for k in value.keywords):
                ctx.steps.append(self._step("bound", attr, line))
                return
        if _is_empty_container(value):
            # reassignment-to-empty: the swap half of a swap-drain
            # (``batch, self.q = self.q, []``); flow.py ignores the ones
            # coming from ``__init__`` construction
            ctx.steps.append(self._step("drain", attr, line))
            return
        ctx.steps.append(self._step("attr-assign", attr, line))

    def _record_pump(self, attr: str, call: ast.Call, line: int,
                     ctx: _Ctx) -> None:
        issue = self._resolve_callable(arg_or_kw(call, 0, "issue"), ctx)
        self.pumps.append(PumpBinding(
            cls=self.cls, attr=attr, issue=issue, line=line, file=self._file))
        ctx.steps.append(self._step("pump-new", attr, line))

    # -- deletes ---------------------------------------------------------
    def _do_delete(self, stmt: ast.Delete, ctx: _Ctx) -> List[_Ctx]:
        for target in stmt.targets:
            if not isinstance(target, ast.Subscript):
                continue
            base_attr = self._container_attr(target.value, ctx)
            if base_attr is not None:
                ctx.steps.append(self._step("drain", base_attr, stmt.lineno))
            elif const_str(target.slice) == "rid":
                ctx.steps.append(self._step("rid-strip", "", stmt.lineno))
        return [ctx]

    # -- calls -----------------------------------------------------------
    def _container_attr(self, node: ast.expr, ctx: _Ctx) -> Optional[str]:
        """Resolve an expression back to a self container attribute,
        chasing local aliases and subscript chains."""
        while isinstance(node, ast.Subscript):
            node = node.value
        attr = self_attr(node)
        if attr is not None:
            return attr
        if isinstance(node, ast.Name):
            bound = ctx.env.get(node.id)
            if isinstance(bound, _Alias):
                return bound.attr
        return None

    def _aliasing_call(self, call: ast.Call, ctx: _Ctx) -> Optional[_Alias]:
        """``self.X.setdefault(...)`` / ``self.X.get(...)`` expose the
        container (or an element sharing its lifetime) under a local."""
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in ("setdefault", "get"):
            base_attr = self_attr(func.value)
            if base_attr is not None:
                return _Alias(base_attr)
        return None

    def _resolve_callable(self, node: Optional[ast.expr],
                          ctx: _Ctx) -> Optional[Closure]:
        if node is None:
            return None
        if isinstance(node, ast.Lambda):
            return Closure(node, dict(ctx.env), file=self._file)
        if isinstance(node, ast.Name):
            bound = ctx.env.get(node.id)
            if isinstance(bound, Closure):
                return bound
            return None
        attr = self_attr(node)
        if attr is not None:
            funcdef, owner = self.table.resolve(self.cls, attr)
            if funcdef is not None:
                return Closure(funcdef, {}, attr, self.table.file_of(owner))
        return None

    def _do_call(self, call: ast.Call, ctx: _Ctx,
                 assigned: bool = False) -> List[_Ctx]:
        func = call.func
        # self.<method>(...) -----------------------------------------------
        attr = self_attr(func) if isinstance(func, ast.Attribute) else None
        if attr is not None:
            if attr in _EMITS:
                return self._do_emit(attr, call, ctx)
            if attr == "set_timer":
                cb = self._resolve_callable(arg_or_kw(call, 1, "callback"), ctx)
                ctx.steps.append(self._step("defer", attr, call.lineno, cb))
                return [ctx]
            return self._do_self_call(attr, call, ctx)
        # self.<attr>.<method>(...) ----------------------------------------
        if isinstance(func, ast.Attribute):
            base_attr = self._container_attr(func.value, ctx)
            if base_attr is not None:
                return self._do_container_call(base_attr, func.attr, call, ctx)
            # local.pop("rid") — dedup identity stripped off a payload
            if func.attr == "pop" and call.args \
                    and const_str(call.args[0]) == "rid":
                ctx.steps.append(self._step("rid-strip", "", call.lineno))
                return [ctx]
            return self._inline_closure_args(call, ctx)
        # plain-name call ---------------------------------------------------
        if isinstance(func, ast.Name):
            bound = ctx.env.get(func.id)
            if isinstance(bound, _DoneParam):
                ctx.steps.append(self._step("done-call", func.id, call.lineno))
                return [ctx]
            if isinstance(bound, Closure):
                return self._inline(bound, call, ctx, as_callback=False)
        return self._inline_closure_args(call, ctx)

    def _do_emit(self, kind: str, call: ast.Call, ctx: _Ctx) -> List[_Ctx]:
        if kind == "datalet_call":
            msg_type = const_str(arg_or_kw(call, 0, "type"))
        else:
            msg_type = const_str(arg_or_kw(call, 1, "type"))
        step_kind = "respond" if kind == "respond" else "emit"
        cb_expr = kwarg(call, "callback")
        detail = f"{kind}:{msg_type or '?'}" + ("+cb" if cb_expr else "")
        ctx.steps.append(self._step(step_kind, detail, call.lineno))
        cb = self._resolve_callable(cb_expr, ctx)
        if cb is None:
            return [ctx]
        # splice the response/timeout continuation into the path
        return self._inline(cb, None, ctx, as_callback=True)

    def _do_container_call(self, attr: str, method: str, call: ast.Call,
                           ctx: _Ctx) -> List[_Ctx]:
        line = call.lineno
        if method in _APPEND_METHODS:
            ctx.steps.append(self._step("append", attr, line))
            # a continuation parked into a drained container is invoked
            # by whatever drains it: splice it in optimistically
            return self._inline_closure_args(call, ctx)
        if method in _DRAIN_METHODS:
            ctx.steps.append(self._step("drain", attr, line))
            return [ctx]
        if method == "push":
            ctx.steps.append(self._step("pump-push", attr, line))
            return self._inline_closure_args(call, ctx)
        if method == "requeue_front":
            ctx.steps.append(self._step("pump-requeue", attr, line))
            return [ctx]
        if method == "kick":
            return [ctx]
        # unknown container/object method: follow any closures handed in
        return self._inline_closure_args(call, ctx)

    def _do_self_call(self, method: str, call: ast.Call, ctx: _Ctx) -> List[_Ctx]:
        funcdef, owner = self.table.resolve(self.cls, method)
        if funcdef is None:
            return self._inline_closure_args(call, ctx)
        if (self.cls, method) in self.active or (owner, method) in self.active:
            ctx.steps.append(self._step("reenter", method, call.lineno))
            return [ctx]
        # bind parameters: closures and container aliases keep identity
        env: Dict[str, Any] = {}
        params = [a.arg for a in funcdef.args.args if a.arg != "self"]
        supplied: List[Tuple[str, ast.expr]] = []
        for i, arg in enumerate(call.args):
            if i < len(params):
                supplied.append((params[i], arg))
        for k in call.keywords:
            if k.arg is not None and k.arg in params:
                supplied.append((k.arg, k.value))
        for name, expr in supplied:
            resolved = self._resolve_callable(expr, ctx)
            if resolved is not None:
                env[name] = resolved
                continue
            src_attr = self_attr(expr)
            if src_attr is not None:
                env[name] = _Alias(src_attr)
            elif isinstance(expr, ast.Name) and expr.id in ctx.env:
                env[name] = ctx.env[expr.id]
        self.active.add((self.cls, method))
        self.active.add((owner, method))
        saved_file = self._file
        self._file = self.table.file_of(owner)
        try:
            saved_env = ctx.env
            ctx.env = dict(env)
            for p in params:
                ctx.env.setdefault(p, CBPARAM)
            done = self._walk_block(list(funcdef.body), [ctx])
            out = []
            for c in done:
                c.env = dict(saved_env)
                c.ended = False  # the helper's return ends the helper, not us
                out.append(c)
        finally:
            self.active.discard((self.cls, method))
            self.active.discard((owner, method))
            self._file = saved_file
        return out

    def _inline(self, closure: Closure, call: Optional[ast.Call], ctx: _Ctx,
                as_callback: bool) -> List[_Ctx]:
        key = id(closure.node)
        if key in ctx.inlined:
            ctx.steps.append(self._step("reenter", closure.name,
                                        getattr(closure.node, "lineno", 0)))
            return [ctx]
        ctx.inlined.add(key)
        saved_env = ctx.env
        saved_cb = self.in_callback
        saved_file = self._file
        child_env = dict(closure.env)
        params = closure.params()
        if call is not None:
            for i, arg in enumerate(call.args):
                if i >= len(params):
                    break
                resolved = self._resolve_callable(arg, ctx)
                if resolved is not None:
                    child_env[params[i]] = resolved
                elif isinstance(arg, ast.Name) and arg.id in ctx.env:
                    child_env[params[i]] = ctx.env[arg.id]
                else:
                    child_env[params[i]] = CBPARAM
            for p in params:
                child_env.setdefault(p, CBPARAM)
        else:
            for p in params:
                child_env[p] = CBPARAM
        ctx.env = child_env
        if as_callback:
            self.in_callback = True
        if closure.file:
            self._file = closure.file
        done = self._walk_block(closure.body(), [ctx])
        out = []
        for c in done:
            c.env = dict(saved_env)
            c.ended = False  # the outer frame resumes after the splice
            out.append(c)
        self.in_callback = saved_cb
        self._file = saved_file
        return out

    def _inline_closure_args(self, call: ast.Call, ctx: _Ctx) -> List[_Ctx]:
        """Optimistically splice closure arguments of an opaque call: a
        continuation handed to unknown machinery is assumed to run."""
        closures: List[Closure] = []

        def collect(expr: ast.expr) -> None:
            if isinstance(expr, (ast.Tuple, ast.List)):
                for e in expr.elts:
                    collect(e)
                return
            if isinstance(expr, ast.Name):
                bound = ctx.env.get(expr.id)
                if isinstance(bound, Closure):
                    closures.append(bound)
                elif isinstance(bound, _DoneParam):
                    # handing the done continuation onward counts as
                    # discharging it (the receiver owns it now)
                    ctx.steps.append(self._step("done-call", expr.id,
                                                call.lineno))
            elif isinstance(expr, ast.Lambda):
                closures.append(Closure(expr, dict(ctx.env), file=self._file))

        for arg in call.args:
            collect(arg)
        for k in call.keywords:
            collect(k.value)
        ctxs = [ctx]
        for closure in closures:
            nxt: List[_Ctx] = []
            for c in ctxs:
                nxt.extend(self._inline(closure, None, c, as_callback=True))
            ctxs = nxt
        return ctxs

    # -- branching -------------------------------------------------------
    def _do_if(self, stmt: ast.If, ctx: _Ctx) -> List[_Ctx]:
        pruned = self._prune_known_callable(stmt.test, ctx)
        if pruned is not None:
            arm = stmt.body if pruned else stmt.orelse
            return self._walk_block(list(arm), [ctx])
        strict = self._is_strict_test(stmt.test, ctx)
        other = ctx.fork()
        body_ctxs = self._walk_block(list(stmt.body), [ctx])
        else_ctxs = self._walk_block(list(stmt.orelse), [other])
        if not strict:
            # local-data join (completion counters): an arm that bails
            # out early re-fires later; only fall-through paths carry
            # liveness obligations
            for c in body_ctxs + else_ctxs:
                if c.ended:
                    c.abandoned = True
        return body_ctxs + else_ctxs

    def _prune_known_callable(self, test: ast.expr,
                              ctx: _Ctx) -> Optional[bool]:
        """``then is not None`` over an env-bound closure is decidable:
        take only the arm where the continuation exists."""
        if isinstance(test, ast.Compare) and len(test.ops) == 1 \
                and isinstance(test.comparators[0], ast.Constant) \
                and test.comparators[0].value is None \
                and isinstance(test.left, ast.Name) \
                and isinstance(ctx.env.get(test.left.id),
                               (Closure, _DoneParam)):
            if isinstance(test.ops[0], ast.IsNot):
                return True
            if isinstance(test.ops[0], ast.Is):
                return False
        return None

    def _is_strict_test(self, test: ast.expr, ctx: _Ctx) -> bool:
        for node in ast.walk(test):
            if self_attr(node) is not None:
                return True
            if isinstance(node, ast.Name) \
                    and isinstance(ctx.env.get(node.id), _CbParam):
                return True
        return False


def walk_method(table: SourceIndex, cls: str, funcdef,
                seed_env: Optional[Dict[str, Any]] = None,
                ) -> Tuple[List[Path], List[PumpBinding]]:
    """Walk one method in the dispatch context of ``cls``; returns the
    linearized paths and any Pump constructions encountered."""
    walker = FlowWalker(table, cls)
    paths = walker.walk(funcdef, seed_env)
    return paths, walker.pumps
