"""Queueing resources for the simulation kernel.

:class:`Server` models a node's CPU (or any rate-limited stage) as an
``c``-server FIFO queue: jobs arrive with a service demand in seconds,
wait for a free slot, occupy it for the demand, then complete.  Queueing
delay under load is what bends the latency/throughput curves in
Fig 12-style experiments — it is emergent, not scripted.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.kernel import Simulator

__all__ = ["Server"]

#: a queued job: (demand, completion callback or None, its arguments)
_Job = Tuple[float, Optional[Callable[..., None]], Tuple[Any, ...]]


class Server:
    """FIFO queue with ``capacity`` parallel service slots.

    Statistics (:attr:`busy_time`, :attr:`completions`, :attr:`max_queue`)
    are tracked so harness probes can report utilization.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "server"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        #: service-time multiplier (>= 1): a degraded node (thermal
        #: throttling, noisy neighbor) serves every job this much slower.
        #: Chaos ``slow_node`` faults set it; 1.0 restores full speed.
        self.slowdown = 1.0
        self._in_service = 0
        self._queue: Deque[_Job] = deque()
        # stats
        self.busy_time = 0.0
        self.completions = 0
        self.max_queue = 0

    def set_slowdown(self, factor: float) -> None:
        if factor < 1.0:
            raise SimulationError(f"slowdown must be >= 1, got {factor}")
        self.slowdown = factor

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    @property
    def in_service(self) -> int:
        return self._in_service

    def utilization(self, elapsed: float) -> float:
        """Fraction of total slot-seconds spent busy over ``elapsed``."""
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.capacity)

    def submit(self, demand: float, fn: Optional[Callable[..., None]] = None,
               *args: Any) -> None:
        """Enqueue a job needing ``demand`` seconds of service; when its
        service completes, run ``fn(*args)`` (``fn=None``: nothing runs).

        Zero-demand jobs still traverse the queue, preserving FIFO order.
        """
        if demand < 0:
            raise SimulationError(f"negative service demand: {demand}")
        demand *= self.slowdown
        if self._in_service < self.capacity:
            # an idle slot: _start written out (the fabric's hot path)
            self._in_service += 1
            self.busy_time += demand
            self.sim.post(demand, self._finish, (fn, args))
        else:
            self._queue.append((demand, fn, args))
            self.max_queue = max(self.max_queue, len(self._queue))

    def _finish(self, fn: Optional[Callable[..., None]], args: tuple) -> None:
        self._in_service -= 1
        self.completions += 1
        # the next queued job is scheduled before this one's callback runs
        if self._queue and self._in_service < self.capacity:
            self._start(*self._queue.popleft())
        if fn is not None:
            fn(*args)

    def _start(self, demand: float, fn: Optional[Callable[..., None]], args: tuple) -> None:
        self._in_service += 1
        self.busy_time += demand
        self.sim.post(demand, self._finish, (fn, args))

    def drain_stats(self) -> dict:
        """Snapshot and reset counters (used between measurement windows)."""
        stats = {
            "busy_time": self.busy_time,
            "completions": self.completions,
            "max_queue": self.max_queue,
        }
        self.busy_time = 0.0
        self.completions = 0
        self.max_queue = 0
        return stats
