"""The one path walker of the static passes: per-handler control flow
for the flow-control passes and the commit-point query.

Both need path-sensitive answers the flat read/write summaries of
:mod:`repro.analysis.summaries` cannot give: "does every path out of
this busy-flag acquisition release the flag, *including* the RPC
error/timeout callback?" (:mod:`repro.analysis.flow`), "can this ack
precede every durable effect?" (:mod:`repro.analysis.commitpoints`).
The walker linearizes a method body into execution *paths* (sequences
of :class:`Step` events), forking at branches and following the
asynchronous continuation structure the actor fabric imposes:

* ``self.call(..., callback=cb)`` / ``self.datalet_call(..., callback=cb)``
  — the callback is inlined **in line** with the emitting path: its
  statements are the path's future, executed at response/timeout time.
  A subclass override of an emitting method is inlined as a helper.
* ``self.helper(...)`` — same-class (inheritance-resolved) methods are
  inlined with parameters bound, so closures threaded through helpers
  (``refresh_shard(then=resume)``) keep their identity.
* ``self.set_timer(delay, cb)`` and ``req.arm(n, then=cb)`` — recorded
  as a ``defer`` step: the continuation runs in a later turn, so the
  passes walk it separately (flow.py's defer-discharge rule; the
  commit-point query plays it after the path).
* closures parked into containers or passed to unresolvable calls are
  inlined optimistically exactly once per path — a continuation handed
  to a drained queue is invoked by whatever pump drains it.
* ``try`` forks the body alone and the body followed by each handler;
  ``break``/``continue`` resume the path after the loop.

Where the passes need different facts they read different steps, never
a different walk: every step records the call behind it and the frames
(``via``) it runs in, a pump push names the issue method it runs, and a
``self.X is None`` test records what each arm assumes.

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
from functools import cached_property
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


@dataclass(eq=False)
class Step:
    """One observable event on an execution path.

    Kinds: ``flag-set``/``flag-clear`` (busy-token transitions),
    ``append``/``drain``/``requeue``/``bound``/``drive`` (queue
    discipline; ``drive`` is any other ``self.X.m()``),
    ``pump-new``/``pump-push``/``pump-requeue``
    (:class:`repro.core.pump.Pump` usage; a push's ``closure`` is
    the issue method it runs), ``emit``/``respond`` (message out; detail
    = ``primitive:type``, ``closure`` = the callback spliced in next),
    ``invoke`` (a method call on any other receiver), ``defer`` (runs in
    a later turn: ``set_timer`` or a fan-out ``arm``'s ``then``, the
    ``closure``; None for a default join), ``enter`` (a helper inlined
    here, ``closure`` binding its arguments), ``splice`` (a closure handed
    to an opaque call, assumed to run here), ``assume`` (the arm of a
    ``self.X is [not] None`` test), ``skip`` (``break``/``continue``),
    ``rid-strip`` (dedup identity dropped from a payload), ``done-call``
    (a pump issue callable invoking its completion continuation),
    ``attr-assign`` (other self-attribute store), ``reenter``
    (cycle-guarded re-entry of a frame already on the inline stack).
    """

    kind: str
    detail: str = ""
    line: int = 0
    file: str = ""
    closure: Optional["Closure"] = None
    #: the call the step records, for passes that read its arguments.
    call: Optional[ast.Call] = None
    #: the ``emit``/``enter``/``splice`` steps whose callback, helper
    #: body or spliced closure this step runs in, outermost first.
    via: Tuple["Step", ...] = ()

    @property
    def in_callback(self) -> bool:
        """Runs in a response callback or a spliced continuation."""
        return any(v.kind != "enter" for v in self.via)


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

#: ``_Ctx.ended`` after ``break``/``continue``: the enclosing loop
#: statement resumes the path.
_LOOP_EXIT = "loop"


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


def _none_test(test: ast.expr) -> Optional[Tuple[ast.expr, bool]]:
    """``X is None`` -> ``(X, True)``; ``X is not None`` -> ``(X, False)``."""
    if (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.IsNot))
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None):
        return test.left, isinstance(test.ops[0], ast.Is)
    return None


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
        self.via: Tuple[Step, ...] = ()
        self._file = table.file_of(cls)
        #: Pump constructions observed during the walk.
        self.pumps: List[PumpBinding] = []
        #: walk_closure results: a closure's paths do not depend on
        #: where it is walked from (the value keeps the key's ids alive).
        self._walked: Dict[Tuple[int, int, str], Tuple[Closure, List[Path]]] = {}
        #: per branch test: (reads self state, names it reads)
        self._tests: Dict[int, Tuple[bool, List[str]]] = {}

    @cached_property
    def _pumps(self) -> Dict[str, str]:
        return self.table.pumps(self.cls)

    # -- entry points ---------------------------------------------------
    def walk(self, funcdef, seed_env: Optional[Dict[str, Any]] = None) -> List[Path]:
        """Linearize a method body into paths."""
        return self.walk_closure(Closure(funcdef, {}), seed_env)

    def walk_closure(self, closure: Closure,
                     seed_env: Optional[Dict[str, Any]] = None) -> List[Path]:
        """Linearize a closure (deferred continuation / pump issue
        callable) with its captured environment re-seeded."""
        key = (id(closure.node), id(closure.env) if closure.env else 0, closure.file)
        if seed_env is None and key in self._walked:
            return self._walked[key][1]
        ctx = _Ctx()
        ctx.env = dict(closure.env)
        for p in closure.params():
            ctx.env[p] = CBPARAM
        if seed_env:
            ctx.env.update(seed_env)
        saved_file = self._file
        if closure.file:
            self._file = closure.file
        frame = (self.cls, closure.name)
        self.active.add(frame)
        try:
            done = self._walk_block(closure.body(), [ctx])
        finally:
            self.active.discard(frame)
            self._file = saved_file
        paths = [Path(steps=c.steps, abandoned=c.abandoned) for c in done]
        if seed_env is None:
            self._walked[key] = (closure, paths)
        return paths

    # -- step helper ----------------------------------------------------
    def _step(self, kind: str, detail: str, line: int,
              closure: Optional[Closure] = None,
              call: Optional[ast.Call] = None) -> Step:
        return Step(kind, detail, line, self._file, closure, call, self.via)

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
            out = self._walk_block(list(stmt.body) + list(stmt.orelse), [ctx])
            for c in out:
                if c.ended == _LOOP_EXIT:
                    c.ended = False
            return out
        if isinstance(stmt, (ast.Break, ast.Continue)):
            ctx.steps.append(self._step("skip", type(stmt).__name__.lower(),
                                        stmt.lineno))
            ctx.ended = _LOOP_EXIT
            return [ctx]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._walk_block(list(stmt.body), [ctx])
        if isinstance(stmt, ast.Try):
            # the body runs to completion, or runs and then a handler
            # does: effects ahead of the raise point are kept
            out: List[_Ctx] = []
            for arm in [stmt.body] + [stmt.body + h.body for h in stmt.handlers]:
                out.extend(self._walk_block(list(arm), [ctx.fork()]))
            return self._walk_block(list(stmt.finalbody), out[:PATH_CAP])
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
            if attr in _EMITS and self._is_primitive(attr):
                return self._do_emit(attr, call, ctx)
            if attr == "set_timer":
                cb = self._resolve_callable(arg_or_kw(call, 1, "callback"), ctx)
                ctx.steps.append(self._step("defer", attr, call.lineno, cb, call))
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
            if func.attr == "arm":
                # a fan-out join: ``then`` runs once the last leg settled
                then = self._resolve_callable(arg_or_kw(call, 1, "then"), ctx)
                ctx.steps.append(self._step("defer", "arm", call.lineno, then, call))
                return [ctx]
            ctx.steps.append(self._step("invoke", func.attr, call.lineno, call=call))
            return self._inline_closure_args(call, ctx)
        # plain-name call ---------------------------------------------------
        if isinstance(func, ast.Name):
            bound = ctx.env.get(func.id)
            if isinstance(bound, _DoneParam):
                ctx.steps.append(self._step("done-call", func.id, call.lineno))
                return [ctx]
            if isinstance(bound, Closure):
                return self._inline(bound, call, ctx)
        return self._inline_closure_args(call, ctx)

    def _is_primitive(self, method: str) -> bool:
        """An emitting method not redefined below the class that
        introduces it; an override is protocol code, inlined like any
        helper."""
        _fn, owner = self.table.resolve(self.cls, method)
        return owner is None or self.table.resolve(owner, method, owner)[0] is None

    def _do_emit(self, kind: str, call: ast.Call, ctx: _Ctx) -> List[_Ctx]:
        if kind == "datalet_call":
            msg_type = const_str(arg_or_kw(call, 0, "type"))
        else:
            msg_type = const_str(arg_or_kw(call, 1, "type"))
        step_kind = "respond" if kind == "respond" else "emit"
        cb_expr = kwarg(call, "callback")
        detail = f"{kind}:{msg_type or '?'}" + ("+cb" if cb_expr else "")
        cb = self._resolve_callable(cb_expr, ctx)
        step = self._step(step_kind, detail, call.lineno, cb, call)
        ctx.steps.append(step)
        if cb is None:
            return [ctx]
        # splice the response/timeout continuation into the path
        return self._inline(cb, None, ctx, frame=step)

    def _do_container_call(self, attr: str, method: str, call: ast.Call,
                           ctx: _Ctx) -> List[_Ctx]:
        line = call.lineno
        if method in _APPEND_METHODS:
            ctx.steps.append(self._step("append", attr, line, call=call))
            # a continuation parked into a drained container is invoked
            # by whatever drains it: splice it in optimistically
            return self._inline_closure_args(call, ctx)
        if method in _DRAIN_METHODS:
            ctx.steps.append(self._step("drain", attr, line, call=call))
            return [ctx]
        if method == "push":
            ctx.steps.append(self._step("pump-push", attr, line,
                                        self._pump_issue(attr), call))
            return self._inline_closure_args(call, ctx)
        if method == "requeue_front":
            ctx.steps.append(self._step("pump-requeue", attr, line, call=call))
            return [ctx]
        if method == "kick":
            return [ctx]
        # unknown container/object method: follow any closures handed in
        ctx.steps.append(self._step("drive", attr, line, call=call))
        return self._inline_closure_args(call, ctx)

    def _pump_issue(self, attr: str) -> Optional[Closure]:
        """The issue method of ``self.<attr> = Pump(self.<issue>)``."""
        funcdef, owner = self.table.resolve(self.cls, self._pumps.get(attr, ""))
        return Closure(funcdef, {}, file=self.table.file_of(owner)) if funcdef else None

    def _do_self_call(self, method: str, call: ast.Call, ctx: _Ctx) -> List[_Ctx]:
        funcdef, owner = self.table.resolve(self.cls, method)
        if funcdef is None:
            return self._inline_closure_args(call, ctx)
        if (self.cls, method) in self.active or (owner, method) in self.active:
            ctx.steps.append(self._step("reenter", method, call.lineno))
            return [ctx]
        params = [a.arg for a in funcdef.args.args if a.arg != "self"]
        env = self._bind(params, call, ctx)
        step = self._step("enter", method, call.lineno,
                          Closure(funcdef, env, method, self.table.file_of(owner)),
                          call)
        ctx.steps.append(step)
        self.active.add((self.cls, method))
        self.active.add((owner, method))
        saved_file = self._file
        saved_via = self.via
        self._file = self.table.file_of(owner)
        self.via = saved_via + (step,)
        try:
            saved_env = ctx.env
            ctx.env = {p: CBPARAM for p in params}
            ctx.env.update(env)
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
            self.via = saved_via
        return out

    def _inline(self, closure: Closure, call: Optional[ast.Call], ctx: _Ctx,
                frame: Optional[Step] = None) -> List[_Ctx]:
        """Splice a closure in: called by name, or (``frame``) run as
        the emit callback or optimistic splice that step records."""
        key = id(closure.node)
        if key in ctx.inlined:
            ctx.steps.append(self._step("reenter", closure.name,
                                        getattr(closure.node, "lineno", 0)))
            return [ctx]
        ctx.inlined.add(key)
        saved_env = ctx.env
        saved_file = self._file
        saved_via = self.via
        params = closure.params()
        ctx.env = {**closure.env, **{p: CBPARAM for p in params}}
        if call is not None:
            ctx.env.update(self._bind(params, call, ctx))
        if closure.file:
            self._file = closure.file
        if frame is not None:
            self.via = saved_via + (frame,)
        done = self._walk_block(closure.body(), [ctx])
        out = []
        for c in done:
            c.env = dict(saved_env)
            c.ended = False  # the outer frame resumes after the splice
            out.append(c)
        self._file = saved_file
        self.via = saved_via
        return out

    def _bind(self, params: List[str], call: ast.Call, ctx: _Ctx) -> Dict[str, Any]:
        """Parameters bound by ``call``'s arguments: closures and
        container aliases keep their identity."""
        env: Dict[str, Any] = {}
        supplied = list(zip(params, call.args)) + [
            (k.arg, k.value) for k in call.keywords if k.arg in params]
        for name, expr in supplied:
            resolved = self._resolve_callable(expr, ctx)
            if resolved is not None:
                env[name] = resolved
            elif self_attr(expr) is not None:
                env[name] = _Alias(self_attr(expr))
            elif isinstance(expr, ast.Name) and expr.id in ctx.env:
                env[name] = ctx.env[expr.id]
        return env

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
                step = self._step("splice", closure.name, call.lineno, closure)
                c.steps.append(step)
                nxt.extend(self._inline(closure, None, c, frame=step))
            ctxs = nxt
        return ctxs

    # -- branching -------------------------------------------------------
    def _do_if(self, stmt: ast.If, ctx: _Ctx) -> List[_Ctx]:
        none_test = _none_test(stmt.test)
        if none_test is not None and isinstance(none_test[0], ast.Name) \
                and isinstance(ctx.env.get(none_test[0].id), (Closure, _DoneParam)):
            # ``then is not None`` over a bound continuation is decidable:
            # take only the arm where it exists
            arm = stmt.orelse if none_test[1] else stmt.body
            return self._walk_block(list(arm), [ctx])
        strict = self._is_strict_test(stmt.test, ctx)
        other = ctx.fork()
        attr = self_attr(none_test[0]) if none_test is not None else None
        if attr is not None:
            # each arm records what it assumes: ``X is None`` / ``X is not None``
            facts = [f"{attr} is None", f"{attr} is not None"]
            if not none_test[1]:
                facts.reverse()
            ctx.steps.append(self._step("assume", facts[0], stmt.lineno))
            other.steps.append(self._step("assume", facts[1], stmt.lineno))
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

    def _is_strict_test(self, test: ast.expr, ctx: _Ctx) -> bool:
        shape = self._tests.get(id(test))
        if shape is None:
            nodes = list(ast.walk(test))
            shape = self._tests[id(test)] = (
                any(self_attr(n) is not None for n in nodes),
                [n.id for n in nodes if isinstance(n, ast.Name)])
        reads_self, names = shape
        return reads_self or any(isinstance(ctx.env.get(n), _CbParam)
                                 for n in names)


def walk_method(table: SourceIndex, cls: str, funcdef,
                seed_env: Optional[Dict[str, Any]] = None,
                ) -> Tuple[List[Path], List[PumpBinding]]:
    """Walk one method in the dispatch context of ``cls``; returns the
    linearized paths and any Pump constructions encountered."""
    walker = FlowWalker(table, cls)
    paths = walker.walk(funcdef, seed_env)
    return paths, walker.pumps
