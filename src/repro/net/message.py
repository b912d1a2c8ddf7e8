"""Message type exchanged between actors (clients, controlets, datalets,
coordinator, DLM, shared log).

A message is a small typed envelope around a dict payload.  The wire
size is *estimated* (header + key/value lengths) because the simulator
only needs sizes for bandwidth/latency modeling; the real TCP layer
(:mod:`repro.net.tcp`) uses actual encoded bytes instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

__all__ = ["Message", "HEADER_BYTES"]

#: modeled fixed per-message overhead (framing, type tag, ids).
HEADER_BYTES = 64

_msg_ids = itertools.count(1)


@dataclass(slots=True)
class Message:
    """Typed envelope routed by a transport.

    ``reply_to`` carries the ``msg_id`` of the request a response
    answers; transports use it to resume the caller's continuation.

    ``ctx`` is the per-request envelope (:class:`repro.obs.context.
    RequestContext`) stamped by the actor fabric; it rides *outside*
    the payload so it never affects modeled wire size, payload
    sanitization, or protocol semantics.  ``None`` for messages that
    are not part of a client request (heartbeats, timers, gossip).

    The class is slotted, so every attribute is declared here: the last
    two are stamped by verifiers outside the protocol (the payload
    sanitizer's send-time digest, the model checker's content
    signature) and take no part in equality.
    """

    type: str
    payload: Dict[str, Any] = field(default_factory=dict)
    src: str = ""
    dst: str = ""
    msg_id: int = field(default_factory=_msg_ids.__next__)
    reply_to: int = 0
    ctx: Any = None
    sent_digest: Optional[str] = field(default=None, compare=False, repr=False)
    _chk_sig: Optional[Tuple[Any, ...]] = field(default=None, compare=False, repr=False)

    def size_bytes(self) -> int:
        """Estimated wire size for network modeling."""
        n = HEADER_BYTES
        for k, v in self.payload.items():
            n += len(k)
            if isinstance(v, str):
                n += len(v)
            elif isinstance(v, bytes):
                n += len(v)
            elif isinstance(v, (list, tuple)):
                n += sum(len(x) if isinstance(x, (str, bytes)) else 8 for x in v)
            elif isinstance(v, dict):
                n += sum(
                    len(kk) + (len(vv) if isinstance(vv, (str, bytes)) else 8)
                    for kk, vv in v.items()
                )
            else:
                n += 8
        return n

    def response(self, type: str, payload: Dict[str, Any] | None = None) -> "Message":
        """Build a response envelope addressed back to the sender."""
        return Message(
            type=type,
            payload=payload or {},
            src=self.dst,
            dst=self.src,
            reply_to=self.msg_id,
            ctx=self.ctx,
        )

    def __repr__(self) -> str:  # compact, log-friendly
        return (
            f"Message({self.type}, {self.src}->{self.dst}, id={self.msg_id}"
            + (f", re={self.reply_to}" if self.reply_to else "")
            + f", {self.payload!r})"
        )
