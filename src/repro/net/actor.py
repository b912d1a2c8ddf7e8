"""Event-driven actor framework — the paper's controlet programming model.

BESPOKV asks controlet developers to express logic as handlers over
*basic events* (network messages, timers) and *extended events*
(developer-defined, raised with ``Emit``); see paper §III-B and the
MS+SC template in Appendix B.  This module is the Python rendition of
that abstraction:

* :meth:`Actor.register` — bind a handler to a message type
  (``Register``/``OnReqIn`` in the paper);
* :meth:`Actor.on` / :meth:`Actor.emit` — extended events
  (``On``/``Emit`` in the paper);
* :meth:`Actor.call` — request/response with continuation callback and
  timeout, the idiom every replication protocol here is written in;
* :meth:`Actor.set_timer` — timers for heartbeats, leases, batching.

Actors are transport-agnostic: the same controlet class runs on the
simulated cluster (:mod:`repro.net.simnet`) and behind the real TCP
front-end (:mod:`repro.net.tcp`).
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from repro.errors import BespoError, RequestTimeout
from repro.hashing import stable_hash
from repro.net.message import Message

__all__ = ["Actor", "NodeContext", "Reply"]


class NodeContext(Protocol):
    """Runtime services a transport provides to an attached actor."""

    node_id: str

    def transmit(self, msg: Message) -> None: ...

    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any) -> Any: ...

    def now(self) -> float: ...


#: A handler for a response: receives (response_message, error-or-None).
Reply = Callable[[Optional[Message], Optional[BespoError]], None]


def canonical(value: Any) -> Any:
    """``value`` as plain data that shares nothing with the actor: dicts
    rebuilt, and lists, tuples and deques as lists, recursively."""
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, deque)):
        return [canonical(v) for v in value]
    return value


@lru_cache(maxsize=None)
def declared_state(cls: type) -> List[Tuple[str, Any, Any]]:
    """Each ``fingerprint`` entry along ``cls``'s MRO, bases first, as
    ``(path, getter, reducer or None)``."""
    entries = [e if isinstance(e, tuple) else (e, None)
               for klass in reversed(cls.__mro__) for e in vars(klass).get("fingerprint", ())]
    return [(path, attrgetter(path), reduce) for path, reduce in entries]


class _Pending:
    __slots__ = ("callback", "timer", "ctx", "span")

    def __init__(self, callback: Reply, timer: Any, ctx: Any = None,
                 span: Any = None):
        self.callback = callback
        self.timer = timer
        #: caller's RequestContext at call time, restored around the
        #: continuation (and around timeout expiry) so retry chains keep
        #: flowing the same request envelope without hand-threading it.
        self.ctx = ctx
        #: open ``rpc:*`` span when a SpanRecorder is attached.
        self.span = span


class Actor:
    """Base class for every node-resident component.

    Subclasses register handlers in :meth:`on_start` (or ``__init__``)
    and never touch the transport directly.
    """

    #: datalet kind for CPU cost accounting ("" = generic control logic).
    kind: str = ""

    #: fingerprinted state, merged along the MRO (:meth:`snapshot_state`).
    fingerprint: Tuple[Any, ...] = ("alive", ("_pending", len))

    def __init__(self, node_id: str):
        self.node_id = node_id
        self._ctx: Optional[NodeContext] = None
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        self._events: Dict[str, Callable[..., None]] = {}
        self._pending: Dict[int, _Pending] = {}
        self.alive = True
        #: when True, repeated deliveries of the same msg_id are dropped
        #: (TCP-style receiver dedup).  The transport enables this only
        #: when it injects duplicates, so the hot path stays branch-cheap.
        self.dedup_incoming = False
        self._seen_ids: "deque[int]" = deque(maxlen=4096)
        self._seen_set: set[int] = set()
        #: SpanRecorder when tracing is attached (SimCluster.attach_obs);
        #: every span hook is behind an ``is not None`` check so the
        #: untraced hot path pays one flag test and zero allocations.
        self._obs: Any = None
        #: MetricsRegistry of the hosting cluster (set by add_actor);
        #: lets actors publish push-style instruments (histograms) in
        #: addition to the pull-style ``metrics_group``/``stats`` scrape.
        self._metrics: Any = None
        #: RequestContext of the message/continuation being processed;
        #: stamped onto outgoing messages so the envelope flows
        #: client -> controlet -> replication -> datalet -> ack without
        #: any handler threading it explicitly.
        self._ctx_current: Any = None

    # ------------------------------------------------------------------
    # lifecycle (called by the transport)
    # ------------------------------------------------------------------
    def attach(self, ctx: NodeContext) -> None:
        self._ctx = ctx
        # sends call the transport directly, shadowing the method below
        # that refuses to send while unattached
        self._transmit = ctx.transmit  # type: ignore[method-assign]

    def on_start(self) -> None:
        """Hook: the node joined the cluster and may send messages."""

    def on_stop(self) -> None:
        """Hook: the node is being shut down or killed."""

    def on_restart(self) -> None:
        """Hook: a crashed node came back (same process image, state
        intact, but every timer chain died with it).  Default: rerun
        :meth:`on_start` so heartbeat/poll loops resume."""
        self.on_start()

    # ------------------------------------------------------------------
    # the paper's event API
    # ------------------------------------------------------------------
    def register(self, msg_type: str, fn: Callable[[Message], None]) -> None:
        """Bind a handler for a *basic event* (an incoming message type)."""
        self._handlers[msg_type] = fn

    def on(self, event: str, fn: Callable[..., None]) -> None:
        """Define an *extended event* handler."""
        self._events[event] = fn

    def emit(self, event: str, *args: Any, **kw: Any) -> None:
        """Raise an extended event; dispatches synchronously."""
        try:
            fn = self._events[event]
        except KeyError:
            raise BespoError(f"{self.node_id}: no handler for event {event!r}") from None
        fn(*args, **kw)

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def send(self, dst: str, type: str, payload: Dict[str, Any] | None = None,
             *, ctx: Any = None) -> Message:
        """Fire-and-forget message."""
        msg = Message(type=type, payload=payload or {}, src=self.node_id, dst=dst,
                      ctx=ctx if ctx is not None else self._ctx_current)
        self._transmit(msg)
        return msg

    def call(
        self,
        dst: str,
        type: str,
        payload: Dict[str, Any] | None = None,
        callback: Optional[Reply] = None,
        timeout: Optional[float] = None,
        *,
        ctx: Any = None,
    ) -> Message:
        """Request/response: invoke ``callback(response, error)`` later.

        On timeout the callback receives ``(None, RequestTimeout)``; a
        dropped message (dead peer) surfaces the same way, which is how
        every failover path in this codebase notices trouble.
        """
        if ctx is None:
            ctx = self._ctx_current
        msg = Message(type=type, payload=payload or {}, src=self.node_id, dst=dst,
                      ctx=ctx)
        if callback is not None:
            span = None
            if self._obs is not None and ctx is not None and ctx.trace_id is not None:
                span = self._obs.begin(ctx, f"rpc:{type}", self.node_id)
                msg.ctx = ctx.child(span.span_id)
            timer = None
            if timeout is not None:
                if self._ctx is None:
                    raise BespoError(f"actor {self.node_id} not attached to a transport")
                timer = self._ctx.set_timer(timeout, self._rpc_timeout, msg.msg_id, dst, type)
            self._pending[msg.msg_id] = _Pending(callback, timer, ctx, span)
        self._transmit(msg)
        return msg

    def respond(self, req: Message, type: str, payload: Dict[str, Any] | None = None) -> None:
        """Send a response correlated with request ``req``."""
        self._transmit(req.response(type, payload))

    def forward(self, req: Message, dst: str) -> None:
        """Re-address a request to another node, preserving correlation.

        The eventual response goes directly back to the original
        requester (used by P2P-style routing, §IV-E).
        """
        fwd = Message(
            type=req.type, payload=dict(req.payload), src=req.src, dst=dst,
            msg_id=req.msg_id, reply_to=req.reply_to, ctx=req.ctx,
        )
        self._transmit(fwd)

    def _rpc_timeout(self, msg_id: int, dst: str, type: str) -> None:
        """An RPC timeout fires: fail the call, unless it was answered
        or this node died first (a dead node runs no timer callback)."""
        if not self.alive:
            return
        pending = self._pending.pop(msg_id, None)
        if pending is None:
            return
        if pending.span is not None:
            self._obs.end(pending.span, "timeout")
        if pending.ctx is not None:
            prev = self._ctx_current
            self._ctx_current = pending.ctx
            try:
                pending.callback(None, RequestTimeout(f"{type} to {dst} timed out"))
            finally:
                self._ctx_current = prev
        else:
            pending.callback(None, RequestTimeout(f"{type} to {dst} timed out"))

    def _transmit(self, msg: Message) -> None:
        if self._ctx is None:
            raise BespoError(f"actor {self.node_id} not attached to a transport")
        self._ctx.transmit(msg)

    # ------------------------------------------------------------------
    # dispatch (called by the transport)
    # ------------------------------------------------------------------
    def deliver(self, msg: Message) -> None:
        """Route one incoming message to the right continuation/handler."""
        if not self.alive:
            return
        if msg.reply_to:
            pending = self._pending.pop(msg.reply_to, None)
            if pending is not None:
                if pending.timer is not None:
                    pending.timer.cancel()
                if pending.span is not None:
                    self._obs.end(pending.span, msg.type)
                if pending.ctx is not None:
                    prev = self._ctx_current
                    self._ctx_current = pending.ctx
                    try:
                        pending.callback(msg, None)
                    finally:
                        self._ctx_current = prev
                else:
                    pending.callback(msg, None)
                return
            # Late response after timeout: drop silently.
            return
        if self.dedup_incoming:
            if msg.msg_id in self._seen_set:
                return  # duplicate delivery (injected); already handled
            if len(self._seen_ids) == self._seen_ids.maxlen:
                self._seen_set.discard(self._seen_ids[0])
            self._seen_ids.append(msg.msg_id)
            self._seen_set.add(msg.msg_id)
        handler = self._handlers.get(msg.type)
        if handler is None:
            self.on_unhandled(msg)
            return
        if msg.ctx is not None:
            prev = self._ctx_current
            self._ctx_current = msg.ctx
            try:
                handler(msg)
            finally:
                self._ctx_current = prev
        else:
            handler(msg)

    def on_unhandled(self, msg: Message) -> None:
        """Hook for unknown message types; default replies with an error."""
        if msg.src:
            self.respond(msg, "error", {"error": f"unhandled message type {msg.type!r}"})

    # ------------------------------------------------------------------
    # model-checker introspection
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Protocol-relevant state for model-checker fingerprints: one
        loop over the ``fingerprint`` declarations along the MRO, each
        value through :func:`canonical`.

        A class declares its share once: an attribute name, a dotted
        path into a part the actor holds (``"_recovery.catchup"``), or
        ``(path, reducer)`` where the reducer keeps only what tells two
        behaviours apart (``("_pending", len)``: msg ids diverge across
        replayed branches).  Leave out what merely drifts with wall time
        or accounting (timestamps, ``stats``), or the explored graph
        never closes.  Actors whose state is more than attribute paths
        (the coordinator, DLM and shared log) extend the dict.
        """
        s = {}
        for path, get, reduce in declared_state(type(self)):
            value = get(self)
            s[path] = canonical(value if reduce is None else reduce(value))
        return s

    def pending_introspect(self) -> list:
        """``(msg_id, has_timer, armed)`` per outstanding call — feeds
        the checker's orphaned-pending-call invariant: a continuation
        whose timeout timer was *cancelled* without the entry being
        removed can only resolve via a response that may never come.
        Calls issued without a timeout (colocated datalet calls) have
        ``has_timer=False`` and are legitimately unbounded."""
        out = []
        for msg_id, pending in self._pending.items():
            has_timer = pending.timer is not None
            armed = has_timer and not pending.timer.cancelled
            out.append((msg_id, has_timer, armed))
        return out

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def set_timer(self, delay: float, fn: Callable[[], None]) -> Any:
        """Run ``fn`` after ``delay`` seconds unless the node dies first."""
        if self._ctx is None:
            raise BespoError(f"actor {self.node_id} not attached to a transport")

        def guarded() -> None:
            if self.alive:
                fn()

        # surfaced in race-detector reports (see simnet._NodeCtx._traced_timer)
        guarded.timer_label = getattr(fn, "__qualname__", "timer")  # type: ignore[attr-defined]
        return self._ctx.set_timer(delay, guarded)

    def now(self) -> float:
        if self._ctx is None:
            raise BespoError(f"actor {self.node_id} not attached to a transport")
        return self._ctx.now()

    def loop_phase(self, label: str, period: float) -> float:
        """Stable per-(node, loop) offset in ``(0, period)``.

        Add it to a periodic loop's *first* arm: two independent
        same-period loops armed at the same instant (heartbeat and
        anti-entropy both start at boot) would otherwise fire at the
        same timestamp forever, leaving their relative order to the
        event heap's insertion sequence — exactly the schedule
        sensitivity ``repro.analysis.races`` flags.  Exact-period
        re-arms preserve the offset, so one stagger fixes the chain.
        """
        return period * ((stable_hash(f"{self.node_id}:{label}") % 65521) + 1) / 65523.0

    # ------------------------------------------------------------------
    # CPU accounting (overridden by datalets)
    # ------------------------------------------------------------------
    def service_demand(self, msg: Message, costs: Any) -> float:
        """Extra CPU seconds consumed processing ``msg`` (beyond the
        transport's per-message cost).  The simulated transport charges
        this to the node's CPU before invoking the handler.  ``costs`` is
        the cluster's :class:`~repro.sim.costs.CostModel`."""
        return 0.0
