"""Explicit in-flight write request owned by a controlet.

Before this abstraction each controlet hand-threaded ack/retry/fan-out
bookkeeping through nested closures (``remaining = {"n": ...}`` dicts,
``retries`` parameters re-passed down call chains).  A :class:`Request`
now owns that state explicitly:

* ``arm``/``settle`` — fan-out join counting with first-error capture;
* ``ack``/``fail``/``finish`` — exactly-once completion that responds
  to the originating message and commits the request-id dedup tables
  via ``Controlet._complete_request``.

``rid`` is the client-stamped request id (``RequestContext.req_id``) —
the *operation* identity shared by every retry of one client mutation.
``dedup=True`` requests participate in the controlet's rid cache so a
duplicate attempt is answered from cache instead of re-executing.

The model-checker's handler summaries treat ``Request(self, ...)`` as a
known-safe escape of ``self`` (see ``analysis/summaries.py``): requests
only touch the rid tables (ignored there) and respond to messages,
both order-insensitive for partial-order reduction.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.net.message import Message

__all__ = ["Request"]


class Request:
    """One client (or replication) write moving through a controlet."""

    __slots__ = ("ctl", "msg", "op", "rid", "dedup", "done",
                 "_remaining", "_error", "_resp", "_then")

    def __init__(self, ctl, msg: Message, op: str,
                 rid: Optional[str] = None, dedup: bool = False) -> None:
        self.ctl = ctl
        self.msg = msg
        self.op = op
        self.rid = rid
        self.dedup = dedup
        self.done = False
        self._remaining = 0
        self._error: Optional[str] = None
        self._resp = None
        self._then: Optional[Callable[[Optional[str]], None]] = None

    # -- completion ------------------------------------------------------
    def ack(self, payload: Optional[Dict] = None) -> None:
        self.finish("ok", payload)

    def fail(self, error: str) -> None:
        self.finish("error", {"error": str(error)})

    def finish(self, type: str, payload: Optional[Dict] = None) -> None:
        """Respond to the originating message exactly once."""
        if self.done:
            return
        self.done = True
        self.ctl._complete_request(self, type, payload if payload is not None else {})

    # -- fan-out join ----------------------------------------------------
    def arm(self, n: int,
            then: Optional[Callable[[Optional[str]], None]] = None) -> None:
        """Expect ``n`` legs; complete when all have settled.

        ``then(first_error)`` overrides the default completion (used
        e.g. to release a lock before responding).
        """
        self._remaining = n
        self._error = None
        self._resp = None
        self._then = then

    def settle(self, error: Optional[str] = None, resp=None) -> None:
        """One fan-out leg finished (``error`` records the first failure)."""
        if error is not None and self._error is None:
            self._error = str(error)
        if resp is not None and self._resp is None:
            self._resp = resp
        self._remaining -= 1
        if self._remaining != 0:
            return
        if self._then is not None:
            self._then(self._error)
        elif self._resp is not None and self._error is None:
            self.finish(self._resp.type, dict(self._resp.payload))
        else:
            self.fail(self._error if self._error is not None else "no response")
