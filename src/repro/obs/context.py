"""The request envelope that rides every message of one client request.

A :class:`RequestContext` is created once per client operation and then
flows client → controlet → replication fan-out/chain → datalet → ack
without any handler threading it by hand: the actor fabric stamps the
current context onto every outgoing :class:`~repro.net.message.Message`
and restores it around response callbacks, handler dispatch, and RPC
timeouts (see ``Actor.deliver`` / ``Actor._rpc_timeout``).

Two independent concerns share the envelope:

* **identity** — ``req_id`` names the *operation* (not the attempt), so
  replicas can deduplicate client retries from fabric duplicates.  It
  is stamped on every mutation even when tracing is off.
* **tracing** — ``trace_id``/``span_id`` tie the message to the span
  tree an attached :class:`~repro.obs.trace.SpanRecorder` is building.
  ``trace_id`` is ``None`` when no recorder is attached, and all span
  hooks stay dormant.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["RequestContext"]


class RequestContext:
    """Per-request envelope: trace identity, origin, deadline, request id."""

    __slots__ = ("trace_id", "span_id", "origin", "deadline", "req_id")

    def __init__(
        self,
        trace_id: Optional[int] = None,
        span_id: int = 0,
        origin: str = "",
        deadline: Optional[float] = None,
        req_id: Optional[str] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.origin = origin
        self.deadline = deadline
        self.req_id = req_id

    def child(self, span_id: int) -> "RequestContext":
        """Same request, re-parented under ``span_id`` (one RPC hop down)."""
        return RequestContext(self.trace_id, span_id, self.origin,
                              self.deadline, self.req_id)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "origin": self.origin,
            "deadline": self.deadline,
            "req_id": self.req_id,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RequestContext(trace={self.trace_id}, span={self.span_id}, "
                f"origin={self.origin!r}, req_id={self.req_id!r})")
