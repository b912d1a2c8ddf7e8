"""perfbench's own tracer: spans recorded from outside the program.

Installed only for the traced pass, never for end-to-end numbers.  It
hooks the kernel through ``Simulator.add_tracer`` (one span per event)
and wraps, from this file, public entry points of each layer.  A span
has a name ``<layer>.<what>``, a start, an end and a parent; a layer's
self time is its spans' duration minus what their child spans cover.
Everything runs on one thread and nothing overlaps, so the self times
of all layers plus the time outside any span add up to the window.

Callbacks the kernel runs later (``call_later``), generator processes
(``spawn``) and actor timers (``set_timer``) are attributed to the layer
whose module defines the code that runs, and inherit the client op that
scheduled them — that causal link is what joins the spans of one op
into a tree across kernel events.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import lru_cache
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.client.kv import KVClient
from repro.datalet import ENGINE_KINDS, WriteAheadLog
from repro.net.actor import Actor
from repro.net.simnet import ClientPort, SimCluster
from repro.sim import DurableFile, Network, Server, Simulator
from repro.workloads import Workload

from perfbench import spec

#: source path fragment -> layer; first match wins.
_MODULE_LAYERS = [
    ("repro/sim/kernel", "kernel"), ("repro/sim/network", "network"),
    ("repro/sim/resources", "resources"), ("repro/sim/durable", "wal"),
    ("repro/net/simnet", "simnet"), ("repro/net/", "actor"),
    ("repro/core/", "core"), ("repro/cluster/", "coordinator"),
    ("repro/coordinator/", "coordinator"), ("repro/dlm/", "dlm"),
    ("repro/sharedlog/", "sharedlog"), ("repro/datalet/wal", "wal"),
    ("repro/datalet/", "datalet"), ("repro/client/", "client"),
    ("repro/hashing/", "client"), ("repro/workloads/", "workloads"),
    # perfbench's session loop is the workload generator's driver
    ("perfbench/", "workloads"),
]


@lru_cache(maxsize=None)
def layer_of_path(path: str) -> str:
    """Layer of a source file path or a dotted module name."""
    norm = path.replace("\\", "/")
    if "/" not in norm:
        norm = norm.replace(".", "/") + "/"
    for fragment, layer in _MODULE_LAYERS:
        if fragment in norm:
            return layer
    return "other"


class Tracer:
    """Span stack + per-name aggregates + span trees of the first ops."""

    def __init__(self, keep_ops: int = spec.KEEP_OP_TREES) -> None:
        self.enabled = False
        self.keep_ops = keep_ops
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.events = 0
        #: frames: [name, child_ns, start_ns, span_id, parent_id, op]
        self._stack: List[list] = []
        #: (op, span_id) that caused the code now running, or None
        self.cause: Optional[Tuple[int, int]] = None
        self._ops = 0
        self._span_ids = 0
        #: op -> [(span_id, parent_id, name, start_ns, end_ns)]
        self.trees: Dict[int, List[tuple]] = {}
        #: bytes the WAL hands to its durable files, and user bytes put
        self.wal_bytes = 0
        self.user_bytes = 0

    def reset(self) -> None:
        """Forget what was recorded so far (set-up and warm-up); call
        between kernel runs, when no span is open."""
        assert not self._stack, "reset with a span open"
        self.__init__(self.keep_ops)
        self.enabled = True

    # -- spans -----------------------------------------------------------
    def enter(self, name: str) -> None:
        cause = self.cause
        if cause is None:
            self._stack.append([name, 0, perf_counter_ns(), 0, 0, None])
            return
        self._span_ids += 1
        self._stack.append([name, 0, perf_counter_ns(), self._span_ids,
                            self.current_span(), cause[0]])

    def exit(self) -> None:
        end = perf_counter_ns()
        name, child_ns, start, span_id, parent, op = self._stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration
        if span_id:
            self.trees.setdefault(op, []).append((span_id, parent, name, start, end))

    def current_span(self) -> int:
        """The span new work started now hangs under: the enclosing span
        when it belongs to the same op, else the span that caused us."""
        cause = self.cause
        if cause is None:
            return 0
        if self._stack and self._stack[-1][5] == cause[0]:
            return self._stack[-1][3]
        return cause[1]

    # -- kernel tracer protocol (Simulator.add_tracer) --------------------
    def begin_event(self, time: float, seq: int) -> None:
        if self.enabled:
            self.events += 1
            self._stack.append(["kernel.event", 0, perf_counter_ns(), 0, 0, None])

    def end_event(self) -> None:
        if self.enabled and self._stack:
            self.exit()

    # -- attribution -----------------------------------------------------
    def layer_of_callable(self, fn: Callable) -> str:
        code = getattr(getattr(fn, "__func__", fn), "__code__", None)
        return layer_of_path(code.co_filename) if code is not None else "kernel"

    def new_op(self) -> Optional[int]:
        self._ops += 1
        return self._ops if self._ops <= self.keep_ops else None

    # -- results ---------------------------------------------------------
    def layer_self_ns(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns
        return dict(out)

    def report(self, window_ns: int) -> dict:
        layers = self.layer_self_ns()
        known = {k: v for k, v in layers.items() if k in spec.TRACE_LAYERS}
        return {
            "window_ns": window_ns,
            "events": self.events,
            "layer_self_frac": {k: known.get(k, 0) / window_ns for k in spec.TRACE_LAYERS},
            # outside any span (heap pops between events, tracer
            # bookkeeping) or inside code of no listed layer
            "unattributed_frac": 1.0 - sum(known.values()) / window_ns,
            "span_self_ns": dict(sorted(self.self_ns.items())),
            "span_calls": dict(sorted(self.calls.items())),
        }

    def dump(self, path, meta: dict, window_ns: int) -> None:
        trees = {
            str(op): [{"span": s, "parent": p, "name": n, "start_ns": a, "end_ns": b}
                      for s, p, n, a, b in sorted(spans)]
            for op, spans in sorted(self.trees.items())
        }
        with open(path, "w") as fh:
            json.dump({"meta": meta, "aggregate": self.report(window_ns),
                       "op_trees": trees}, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# installation: patch public entry points, restore on uninstall
# ---------------------------------------------------------------------------
class Installed:
    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[type, str, Any]] = []

    def patch(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def uninstall(self) -> None:
        self.tracer.enabled = False
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved.clear()


def install(tracer: Tracer) -> Installed:
    """Patch the layer boundaries.  Wrappers fall straight through while
    ``tracer.enabled`` is false."""
    inst = Installed(tracer)
    tr = tracer

    def span(name: str) -> Callable[[Callable], Callable]:
        def make(original: Callable) -> Callable:
            def wrapped(*args, **kwargs):
                if not tr.enabled:
                    return original(*args, **kwargs)
                tr.enter(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tr.exit()
            return wrapped
        return make

    inst.patch(Workload, "next_op", span("workloads.next_op"))
    inst.patch(Network, "send", span("network.send"))
    inst.patch(SimCluster, "route", span("simnet.route"))
    inst.patch(Server, "submit", span("resources.submit"))
    for kind in spec.LADDER_ENGINES:
        cls = ENGINE_KINDS[kind]
        for method in ("put", "get", "delete", "scan"):
            if method in cls.__dict__:
                inst.patch(cls, method, span(f"datalet.{kind}.{method}"))
    inst.patch(WriteAheadLog, "append", span("wal.append"))
    inst.patch(WriteAheadLog, "sync", span("wal.sync"))
    inst.patch(WriteAheadLog, "install_snapshot", span("wal.install_snapshot"))
    inst.patch(DurableFile, "append", _count_bytes(tr))
    inst.patch(DurableFile, "replace", _count_bytes(tr))
    for method in ("get", "put", "delete", "scan"):
        inst.patch(KVClient, method, _client_op(tr, f"client.{method}"))
    inst.patch(Actor, "register", _register(tr))
    inst.patch(Actor, "call", _call(tr))
    for method in ("deliver", "send", "respond", "forward"):
        inst.patch(Actor, method, span(f"actor.{method}"))
    inst.patch(Actor, "set_timer", _set_timer(tr))
    inst.patch(Simulator, "call_later", _call_later(tr))
    inst.patch(Simulator, "spawn", _spawn(tr))
    return inst


def _count_bytes(tr: Tracer):
    def make(original):
        def write(self, data):
            if tr.enabled:
                tr.wal_bytes += len(data)
            return original(self, data)
        return write
    return make


def _client_op(tr: Tracer, name: str):
    def make(original):
        def op(self, *args, **kwargs):
            if not tr.enabled:
                return original(self, *args, **kwargs)
            prev = tr.cause
            op_id = tr.new_op()
            # the op's root span id is allocated by enter() below
            tr.cause = (op_id, 0) if op_id is not None else None
            if name == "client.put":
                tr.user_bytes += len(args[0]) + len(args[1])
            tr.enter(name)
            try:
                return original(self, *args, **kwargs)
            finally:
                tr.exit()
                tr.cause = prev
        return op
    return make


def _actor_layer(actor: Actor) -> str:
    """A delivery is charged to the receiving actor's module; the load
    generator's port is the client library's."""
    if isinstance(actor, ClientPort):
        return "client"
    return layer_of_path(type(actor).__module__)


def _register(tr: Tracer):
    """Handlers run in a span of the receiving actor's layer, one name
    per message type; ``Actor.deliver`` around them is the fabric's."""
    def make(original):
        def register(self, msg_type, fn):
            name = f"{_actor_layer(self)}.on:{msg_type}"

            def handler(msg):
                if not tr.enabled:
                    return fn(msg)
                tr.enter(name)
                try:
                    return fn(msg)
                finally:
                    tr.exit()

            return original(self, msg_type, handler)
        return register
    return make


def _call(tr: Tracer):
    """``Actor.call``: building and sending the request is the fabric's;
    the continuation runs in the caller's layer."""
    def make(original):
        def call(self, dst, type, payload=None, callback=None, timeout=None, *, ctx=None):
            if not tr.enabled:
                return original(self, dst, type, payload, callback, timeout, ctx=ctx)
            reply = callback
            if callback is not None:
                name = f"{_actor_layer(self)}.reply:{type}"

                def reply(resp, err):
                    if not tr.enabled:
                        return callback(resp, err)
                    tr.enter(name)
                    try:
                        return callback(resp, err)
                    finally:
                        tr.exit()

            tr.enter("actor.call")
            try:
                return original(self, dst, type, payload, reply, timeout, ctx=ctx)
            finally:
                tr.exit()
        return call
    return make


def _set_timer(tr: Tracer):
    def make(original):
        def set_timer(self, delay, fn):
            if not tr.enabled:
                return original(self, delay, fn)
            name = f"{_actor_layer(self)}.timer"

            def timed():
                if not tr.enabled:
                    return fn()
                tr.enter(name)
                try:
                    return fn()
                finally:
                    tr.exit()

            timed.__qualname__ = getattr(fn, "__qualname__", "timer")
            return original(self, delay, timed)
        return set_timer
    return make


def _call_later(tr: Tracer):
    def make(original):
        def call_later(self, delay, fn, *args):
            if not tr.enabled:
                return original(self, delay, fn, *args)
            name = tr.layer_of_callable(fn) + ".callback"
            cause = (tr.cause[0], tr.current_span()) if tr.cause is not None else None

            def run():
                if not tr.enabled:
                    return fn(*args)
                prev = tr.cause
                tr.cause = cause
                tr.enter(name)
                try:
                    return fn(*args)
                finally:
                    tr.exit()
                    tr.cause = prev

            label = getattr(fn, "timer_label", None)
            if label is not None:
                run.timer_label = label
            return original(self, delay, run)
        return call_later
    return make


def _spawn(tr: Tracer):
    def make(original):
        def spawn(self, gen):
            if not tr.enabled:
                return original(self, gen)
            name = layer_of_path(gen.gi_code.co_filename) + ".process"
            return original(self, _traced_process(tr, gen, name))
        return spawn
    return make


def _traced_process(tr: Tracer, gen, name: str):
    """Generator proxy: every resumption of ``gen`` runs inside a span."""
    value: Any = None
    error: Optional[BaseException] = None
    while True:
        on = tr.enabled
        if on:
            tr.enter(name)
        try:
            if error is not None:
                yielded = gen.throw(error)
            else:
                yielded = gen.send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            if on:
                tr.exit()
        try:
            value = yield yielded
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as e:  # thrown in by the kernel: forward it
            value, error = None, e
