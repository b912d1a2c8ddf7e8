"""Deterministic discrete-event simulation kernel.

The kernel is the substrate every scale-out experiment in this repo runs
on.  It provides:

* a virtual clock (:attr:`Simulator.now`) that advances only when events
  fire — simulating a 48-node cluster for 30 virtual seconds takes
  milliseconds of wall time and is bit-for-bit reproducible for a fixed
  seed;
* a priority event queue with stable FIFO ordering for simultaneous
  events (ties broken by insertion sequence, never by callback identity,
  which would be nondeterministic);
* timer *lanes*: cancellable timers armed with the same delay wait in
  one FIFO lane, and only the lane's head sits in the heap (see
  :meth:`Simulator.call_later`), so the many RPC timeouts and lock
  leases that are cancelled before they are due never cost a heap
  push or pop;
* lightweight *processes*: plain Python generators that ``yield`` either
  a float (sleep for that many virtual seconds) or a :class:`SimFuture`
  (park until the future resolves).

Design notes
------------
The heap holds posted callbacks and lane heads only.  Within a lane,
deadlines never fall (``now`` only rises) and sequence numbers rise, so
a lane is already in firing order and its head is its earliest member.
When a head pops, fired or cancelled, the kernel drops the cancelled
handles behind it and pushes the next live one under that handle's own
``(when, seq)``: the global firing order, :attr:`Simulator.events_processed`
and :meth:`Simulator.armed_events` are exactly those of one heap holding
every timer.

Protocol code (controlets, datalets, coordinator) is written in the
paper's event-handler style and therefore runs as plain callbacks; the
generator-process facility exists mainly for closed-loop load clients
and test drivers, which read much more naturally as sequential code.

The kernel deliberately has **no global state**: every experiment builds
its own :class:`Simulator`, so pytest can run hundreds of simulations in
one process without cross-talk.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

__all__ = ["Simulator", "SimFuture", "TimerHandle", "Process"]


class _TracerChain:
    """Fan-out wrapper so several tracers (race detector, sanitizer,
    model-checker bookkeeping) can observe the same kernel."""

    __slots__ = ("tracers",)

    def __init__(self, *tracers: Any):
        self.tracers = list(tracers)

    def begin_event(self, time: float, seq: int) -> None:
        for t in self.tracers:
            t.begin_event(time, seq)

    def end_event(self) -> None:
        for t in self.tracers:
            t.end_event()


class TimerHandle:
    """One scheduled event, and the handle :meth:`Simulator.call_later`
    returns for it: the kernel runs ``fn(*args)`` at :attr:`when` unless
    :meth:`cancel` was called first.

    A handle waits in its delay's lane (:attr:`lane`); only the lane's
    head is in the heap, as a ``(time, seq, None, handle)`` tuple, so
    ordering is decided by C-level tuple comparison — ``seq`` is unique,
    so the comparison never falls through to the rest.  (An earlier
    design gave the event a Python ``__lt__`` and heaped the objects
    directly; at saturation that one method dominated kernel profiles.)
    Carrying ``args`` on the event means scheduling a call allocates no
    closure.  Cancelling only sets a flag: the kernel drops the handle
    when it reaches its lane's front.  Callbacks that are never
    cancelled skip the handle altogether: see :meth:`Simulator.post`.
    """

    __slots__ = ("when", "seq", "fn", "args", "cancelled", "lane")

    def __init__(self, when: float, seq: int, fn: Callable[..., None], args: tuple,
                 lane: Optional["_Lane"] = None):
        self.when = when
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: the lane of this handle's delay (``None`` under
        #: ``tie_break="lifo"``, where every timer is heaped)
        self.lane = lane

    def cancel(self) -> None:
        """Prevent the timer from firing.  Idempotent."""
        self.cancelled = True


class _Lane(deque):
    """The timers waiting behind one delay's head, in firing order."""

    __slots__ = ("delay",)


class SimFuture:
    """A single-assignment cell that processes can wait on.

    Mirrors the small subset of ``asyncio.Future`` the codebase needs:
    ``set_result``/``set_exception`` fire registered callbacks exactly
    once; late ``add_done_callback`` registrations fire immediately.
    """

    __slots__ = ("_sim", "_done", "_result", "_exception", "_callbacks")

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self._done = False
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: list[Callable[["SimFuture"], None]] = []

    @property
    def done(self) -> bool:
        return self._done

    def result(self) -> Any:
        if not self._done:
            raise SimulationError("SimFuture.result() called before completion")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self) -> Optional[BaseException]:
        if not self._done:
            raise SimulationError("SimFuture.exception() called before completion")
        return self._exception

    def set_result(self, value: Any = None) -> None:
        self._finish(value, None)

    def set_exception(self, exc: BaseException) -> None:
        self._finish(None, exc)

    def _finish(self, result: Any = None, exception: Optional[BaseException] = None) -> None:
        if self._done:
            raise SimulationError("SimFuture completed twice")
        self._done = True
        self._result = result
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, []
        # Callbacks run inline: every protocol chain in this codebase is
        # broken up by network/timer events (call_later), so recursion
        # depth stays shallow, and skipping a heap round-trip per
        # completion roughly halves saturated-simulation wall time.
        for cb in callbacks:
            cb(self)

    def add_done_callback(self, cb: Callable[["SimFuture"], None]) -> None:
        if self._done:
            cb(self)
        else:
            self._callbacks.append(cb)


#: A simulation process: a generator that yields sleeps (float) or futures.
Process = Generator[Any, Any, Any]


class Simulator:
    """Event loop with a virtual clock.

    Typical driver::

        sim = Simulator()
        sim.spawn(client_loop(...))          # generator process
        sim.call_later(20.0, inject_failure)
        sim.run_until(40.0)
    """

    def __init__(self, tie_break: str = "fifo") -> None:
        if tie_break not in ("fifo", "lifo"):
            raise SimulationError(f"tie_break must be 'fifo' or 'lifo', got {tie_break!r}")
        self._now = 0.0
        #: ``(when, seq, fn, args)`` for a posted callback, ``(when, seq,
        #: None, handle)`` for the head of a ``call_later`` lane
        self._heap: list[tuple] = []
        # "lifo" counts the insertion sequence down (-1, -2, ...) so
        # simultaneous events pop in reverse order — a legal-but-different
        # schedule used by the race detector's perturbation re-runs.
        # Event *times* are untouched; only ties flip.
        self._seq = itertools.count(1) if tie_break == "fifo" else itertools.count(-1, -1)
        #: delay -> the lane whose head is in the heap.  "lifo" has no
        #: lanes: a later same-delay timer can fire first there.
        self._lanes: Optional[dict[float, _Lane]] = {} if tie_break == "fifo" else None
        self._stopped = False
        #: number of events executed — useful for kernel regression tests
        self.events_processed = 0
        #: optional event tracer (e.g. ``repro.analysis.races.RaceDetector``):
        #: an object with ``begin_event(time, seq)`` / ``end_event()``
        #: called around every event callback.  ``None`` costs one branch
        #: per event.
        self.tracer: Optional[Any] = None

    # ------------------------------------------------------------------
    # clock & scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def add_tracer(self, tracer: Any) -> None:
        """Attach an event tracer without displacing an existing one.

        Multiple observers (race detector + sanitizer + model checker)
        are fanned out through a :class:`_TracerChain`; assigning
        :attr:`tracer` directly stays supported for single-observer use.
        """
        if self.tracer is None:
            self.tracer = tracer
        elif isinstance(self.tracer, _TracerChain):
            self.tracer.tracers.append(tracer)
        else:
            self.tracer = _TracerChain(self.tracer, tracer)

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> TimerHandle:
        """Schedule ``fn(*args)`` after ``delay`` virtual seconds.

        The timer joins the lane of its ``delay``: it goes into the heap
        only if the lane was empty, else it waits behind the lane's
        head until every earlier member has popped."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        when = self._now + delay
        seq = next(self._seq)
        lanes = self._lanes
        if lanes is None:
            ev = TimerHandle(when, seq, fn, args)
            heappush(self._heap, (when, seq, None, ev))
            return ev
        lane = lanes.get(delay)
        if lane is None:
            lane = lanes[delay] = _Lane()
            lane.delay = delay
            ev = TimerHandle(when, seq, fn, args, lane)
            heappush(self._heap, (when, seq, None, ev))
        else:
            ev = TimerHandle(when, seq, fn, args, lane)
            lane.append(ev)
        return ev

    def _advance(self, lane: _Lane) -> None:
        """A lane's head left the heap: heap its next live member, or
        drop the lane once only cancelled handles were behind it."""
        while lane:
            ev = lane.popleft()
            if not ev.cancelled:
                heappush(self._heap, (ev.when, ev.seq, None, ev))
                return
        del self._lanes[lane.delay]

    def post(self, delay: float, fn: Callable[..., None], args: tuple = ()) -> None:
        """Schedule ``fn(*args)`` after ``delay`` virtual seconds, with no
        handle: for callbacks that are never cancelled (a message in
        flight, a CPU job in service).  It takes the same sequence number
        a :meth:`call_later` would, so the schedule is the same either
        way.  With a tracer attached it *is* a :meth:`call_later`, so
        whatever observes ``call_later`` sees every callback."""
        if self.tracer is not None:
            self.call_later(delay, fn, *args)
            return
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        when = self._now + delay
        heappush(self._heap, (when, next(self._seq), fn, args))

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> TimerHandle:
        """Schedule ``fn(*args)`` at absolute virtual time ``when``."""
        if when < self._now:
            raise SimulationError(f"call_at in the past: {when} < {self._now}")
        return self.call_later(when - self._now, fn, *args)

    def call_soon(self, fn: Callable[..., None], *args: Any) -> TimerHandle:
        """Schedule ``fn(*args)`` at the current time (after pending events)."""
        return self.call_later(0.0, fn, *args)

    # ------------------------------------------------------------------
    # futures & processes
    # ------------------------------------------------------------------
    def create_future(self) -> SimFuture:
        return SimFuture(self)

    def spawn(self, gen: Process) -> SimFuture:
        """Run a generator as a process; returns a future for its result.

        The generator may yield:

        * ``float``/``int`` — sleep that many virtual seconds;
        * :class:`SimFuture` — park until it resolves; the future's result
          is sent back into the generator (exceptions are thrown in).
        """
        done = self.create_future()
        self.post(0.0, self._step, (gen, None, None, done))
        return done

    def _step(
        self,
        gen: Process,
        value: Any,
        exc: Optional[BaseException],
        done: SimFuture,
    ) -> None:
        try:
            if exc is not None:
                yielded = gen.throw(exc)
            else:
                yielded = gen.send(value)
        except StopIteration as stop:
            done.set_result(stop.value)
            return
        except BaseException as e:  # propagate process crash to awaiter
            done.set_exception(e)
            return

        if isinstance(yielded, SimFuture):
            def resume(fut: SimFuture, _gen=gen, _done=done) -> None:
                err = fut._exception
                if err is not None:
                    self._step(_gen, None, err, _done)
                else:
                    self._step(_gen, fut._result, None, _done)

            if yielded._done:
                # Yielding an already-resolved future must not resume
                # inline: a process looping over completed futures would
                # otherwise recurse one stack frame per iteration.
                self.post(0.0, resume, (yielded,))
            else:
                yielded._callbacks.append(resume)
        elif isinstance(yielded, (int, float)):
            self.post(float(yielded), self._step, (gen, None, None, done))
        else:
            self._step(
                gen, None, SimulationError(f"process yielded {type(yielded).__name__}"), done
            )

    def gather(self, futures: Iterable[SimFuture]) -> SimFuture:
        """Future that resolves with a list of results once all inputs do."""
        futures = list(futures)
        out = self.create_future()
        if not futures:
            out.set_result([])
            return out
        remaining = {"n": len(futures)}
        results: list[Any] = [None] * len(futures)

        def on_done(idx: int, fut: SimFuture) -> None:
            if out.done:
                return
            err = fut.exception()
            if err is not None:
                out.set_exception(err)
                return
            results[idx] = fut._result
            remaining["n"] -= 1
            if remaining["n"] == 0:
                out.set_result(results)

        for i, f in enumerate(futures):
            f.add_done_callback(lambda fut, i=i: on_done(i, fut))
        return out

    def sleep(self, delay: float) -> SimFuture:
        """Future that resolves after ``delay`` seconds (for process code)."""
        fut = self.create_future()
        self.post(delay, fut.set_result, (None,))
        return fut

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _traced(self, when: float, seq: int, fn: Callable[..., None], args: tuple) -> None:
        tracer = self.tracer
        tracer.begin_event(when, seq)
        try:
            fn(*args)
        finally:
            tracer.end_event()

    def _dispatch(self, when: float, seq: int, fn: Optional[Callable[..., None]],
                  args: Any) -> bool:
        """Run one popped heap entry: unwrap a timer's handle and advance
        its lane (``False`` if it was cancelled), advance the clock, run
        the callback (inside the tracer's begin/end when one is
        attached) and count it."""
        if fn is None:
            if args.lane is not None:
                self._advance(args.lane)
            if args.cancelled:
                return False
            fn, args = args.fn, args.args
        self._now = when
        if self.tracer is None:
            fn(*args)
        else:
            self._traced(when, seq, fn, args)
        self.events_processed += 1
        return True

    def stop(self) -> None:
        """Make the current :meth:`run`/:meth:`run_until` return."""
        self._stopped = True

    # run_until and run write _dispatch's body out in their loops, so an
    # event there costs no call beyond its own callback.

    def step_one(self) -> Optional[float]:
        """Execute exactly the earliest pending event (skipping cancelled
        entries) and return its firing time, or ``None`` if the heap is
        empty.  This is the model checker's "advance time" transition:
        timers fire one at a time, in deterministic deadline order, so
        the explorer controls how far the clock moves between message
        deliveries."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if self._dispatch(*entry):
                return entry[0]
        return None

    def armed_events(self) -> list[tuple[float, str]]:
        """Live events, heaped or waiting in a lane, as ``(time, label)``
        in firing order — introspection for model-checker state
        fingerprints.  Each event is labelled by its own callable's
        ``timer_label`` or ``__qualname__`` (never by its arguments),
        which is what makes two runs' timer sets comparable."""
        entries = list(self._heap)
        if self._lanes:
            for lane in self._lanes.values():
                entries.extend((ev.when, ev.seq, None, ev) for ev in lane)
        out = []
        for when, _seq, fn, args in sorted(entries):
            if fn is None:
                if args.cancelled:
                    continue
                fn = args.fn
            label = getattr(fn, "timer_label", None) or getattr(
                fn, "__qualname__", type(fn).__name__
            )
            out.append((when, str(label)))
        return out

    def run_until(self, deadline: float) -> None:
        """Execute events until the clock would pass ``deadline``.

        The clock is left exactly at ``deadline`` so that back-to-back
        ``run_until`` calls tile the timeline without gaps.
        """
        self._stopped = False
        heap = self._heap
        pop = heappop
        while heap and not self._stopped:
            if heap[0][0] > deadline:
                break
            when, seq, fn, args = pop(heap)
            if fn is None:
                if args.lane is not None:
                    self._advance(args.lane)
                if args.cancelled:
                    continue
                fn, args = args.fn, args.args
            self._now = when
            if self.tracer is None:
                fn(*args)
            else:
                self._traced(when, seq, fn, args)
            self.events_processed += 1
        if not self._stopped:
            self._now = max(self._now, deadline)

    def run(self, until: Optional[float] = None) -> None:
        """Run to quiescence, or to ``until`` if given."""
        if until is not None:
            self.run_until(until)
            return
        self._stopped = False
        heap = self._heap
        pop = heappop
        while heap and not self._stopped:
            when, seq, fn, args = pop(heap)
            if fn is None:
                if args.lane is not None:
                    self._advance(args.lane)
                if args.cancelled:
                    continue
                fn, args = args.fn, args.args
            self._now = when
            if self.tracer is None:
                fn(*args)
            else:
                self._traced(when, seq, fn, args)
            self.events_processed += 1

    def run_future(self, fut: SimFuture, timeout: Optional[float] = None) -> Any:
        """Drive the simulation until ``fut`` resolves and return its result.

        Convenience for tests: ``sim.run_future(sim.spawn(proc()))``.
        """
        deadline = None if timeout is None else self._now + timeout
        heap = self._heap
        while not fut.done:
            if not heap:
                raise SimulationError("simulation quiesced before future resolved")
            entry = heappop(heap)
            if deadline is not None and entry[0] > deadline:
                fn, args = entry[2], entry[3]
                if fn is None and args.cancelled:
                    if args.lane is not None:
                        self._advance(args.lane)
                    continue
                # still its lane's head: the lane is untouched
                heappush(heap, entry)
                raise SimulationError(f"future unresolved after {timeout}s of sim time")
            self._dispatch(*entry)
        return fut.result()
