"""One-in-flight drain loop shared by every controlet hot path and the
reshard participant's key migration."""

from __future__ import annotations

from typing import Any, Callable, List, Optional

__all__ = ["Pump"]


class Pump:
    """One-in-flight drain loop: busy flag + FIFO queue + retry-requeue.

    Every hot path in the batched controlets serializes its async work
    through the same hand-rolled shape — a queue, a busy flag, and a
    completion callback that releases the flag and re-enters the drain.
    ``Pump`` is that shape as a reusable primitive, so there is exactly
    one canonical implementation for the flow-control static passes
    (:mod:`repro.analysis.flow`) to certify.

    ``issue(item, done)`` starts the asynchronous work for one queued
    item and MUST invoke ``done()`` on **every** completion path —
    success, error response, and RPC timeout alike.  A dropped ``done``
    freezes the pump permanently; the pump-liveness pass checks every
    issue callable wired into a ``Pump`` for exactly this obligation.

    With ``cap=N`` the pump coalesces: ``issue`` receives the *list* of
    up to N oldest items (FIFO) instead of a single item — the shape of
    every batch/frame drain (one ``apply_batch``, one chain frame, one
    sequencer group commit in flight).

    A pump reports itself: ``batches`` and ``items`` count what it
    issued (a retried batch counts again), and ``observe``, when set,
    sees each batch's size.  An item that is itself a list (a frame
    built before it was queued) counts as its members.
    """

    __slots__ = ("issue", "cap", "queue", "busy", "batches", "items", "observe")

    def __init__(self, issue: Callable[[Any, Callable[[], None]], None],
                 cap: Optional[int] = None):
        self.issue = issue
        self.cap = cap
        self.queue: List[Any] = []
        self.busy = False
        self.batches = 0
        self.items = 0
        self.observe: Optional[Callable[[int], None]] = None

    def __len__(self) -> int:
        """Queued items, a queued frame counted as its members."""
        return sum(len(x) if isinstance(x, list) else 1 for x in self.queue)

    def push(self, item: Any) -> None:
        """Queue one item and start draining if idle."""
        self.queue.append(item)
        self.kick()

    def requeue_front(self, items: List[Any]) -> None:
        """Put failed work back at the head of the line so a retry keeps
        its place — younger items must not overtake it (FIFO under
        retry is what keeps per-key ordering through link flaps)."""
        self.queue[:0] = list(items)

    def kick(self) -> None:
        """Issue the next item unless one is already in flight."""
        if self.busy or not self.queue:
            return
        self.busy = True
        if self.cap is None:
            item = self.queue.pop(0)
            n = len(item) if isinstance(item, list) else 1
        else:
            item = self.queue[:self.cap]
            del self.queue[:self.cap]
            n = len(item)
        self.batches += 1
        self.items += n
        if self.observe is not None:
            self.observe(n)

        def done() -> None:
            self.busy = False
            self.kick()

        self.issue(item, done)
