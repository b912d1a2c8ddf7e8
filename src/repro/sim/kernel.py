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
* lightweight *processes*: plain Python generators that ``yield`` either
  a float (sleep for that many virtual seconds) or a :class:`SimFuture`
  (park until the future resolves).

Design notes
------------
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

    The heap stores ``(time, seq, handle)`` tuples so ordering is decided
    by C-level tuple comparison — ``seq`` is unique, so the comparison
    never falls through to the handle.  (An earlier design gave the
    event a Python ``__lt__`` and heaped the objects directly; at
    saturation that one method dominated kernel profiles.)  Carrying
    ``args`` on the event means scheduling a call allocates no closure.
    """

    __slots__ = ("when", "seq", "fn", "args", "cancelled")

    def __init__(self, when: float, seq: int, fn: Callable[..., None], args: tuple):
        self.when = when
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the timer from firing.  Idempotent."""
        self.cancelled = True


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
        self._finish(result=value)

    def set_exception(self, exc: BaseException) -> None:
        self._finish(exception=exc)

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
        self._heap: list[tuple[float, int, TimerHandle]] = []
        # "lifo" counts the insertion sequence down (-1, -2, ...) so
        # simultaneous events pop in reverse order — a legal-but-different
        # schedule used by the race detector's perturbation re-runs.
        # Event *times* are untouched; only ties flip.
        self._seq = itertools.count(1) if tie_break == "fifo" else itertools.count(-1, -1)
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
        """Schedule ``fn(*args)`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        when = self._now + delay
        seq = next(self._seq)
        ev = TimerHandle(when, seq, fn, args)
        heappush(self._heap, (when, seq, ev))
        return ev

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
        self.call_soon(self._step, gen, None, None, done)
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
                err = fut.exception()
                if err is not None:
                    self._step(_gen, None, err, _done)
                else:
                    self._step(_gen, fut._result, None, _done)

            if yielded.done:
                # Yielding an already-resolved future must not resume
                # inline: a process looping over completed futures would
                # otherwise recurse one stack frame per iteration.
                self.call_soon(resume, yielded)
            else:
                yielded.add_done_callback(resume)
        elif isinstance(yielded, (int, float)):
            self.call_later(float(yielded), self._step, gen, None, None, done)
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
        self.call_later(delay, fut.set_result, None)
        return fut

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _execute(self, ev: TimerHandle) -> None:
        tracer = self.tracer
        if tracer is None:
            ev.fn(*ev.args)
        else:
            tracer.begin_event(ev.when, ev.seq)
            try:
                ev.fn(*ev.args)
            finally:
                tracer.end_event()
        self.events_processed += 1

    def stop(self) -> None:
        """Make the current :meth:`run`/:meth:`run_until` return."""
        self._stopped = True

    def step_one(self) -> Optional[float]:
        """Execute exactly the earliest pending event (skipping cancelled
        entries) and return its firing time, or ``None`` if the heap is
        empty.  This is the model checker's "advance time" transition:
        timers fire one at a time, in deterministic deadline order, so
        the explorer controls how far the clock moves between message
        deliveries."""
        while self._heap:
            ev = heappop(self._heap)[2]
            if ev.cancelled:
                continue
            self._now = ev.when
            self._execute(ev)
            return ev.when
        return None

    def armed_events(self) -> list[tuple[float, str]]:
        """Live heap entries as ``(time, label)`` in firing order —
        introspection for model-checker state fingerprints.  Each event
        is labelled by its own callable's ``timer_label`` or
        ``__qualname__`` (never by its arguments), which is what makes
        two runs' timer sets comparable."""
        out = []
        for _t, _s, ev in sorted(self._heap):
            if ev.cancelled:
                continue
            label = getattr(ev.fn, "timer_label", None) or getattr(
                ev.fn, "__qualname__", type(ev.fn).__name__
            )
            out.append((ev.when, str(label)))
        return out

    def run_until(self, deadline: float) -> None:
        """Execute events until the clock would pass ``deadline``.

        The clock is left exactly at ``deadline`` so that back-to-back
        ``run_until`` calls tile the timeline without gaps.
        """
        self._stopped = False
        heap = self._heap
        pop = heappop
        execute = self._execute
        while heap and not self._stopped:
            if heap[0][0] > deadline:
                break
            ev = pop(heap)[2]
            if ev.cancelled:
                continue
            self._now = ev.when
            execute(ev)
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
        execute = self._execute
        while heap and not self._stopped:
            ev = pop(heap)[2]
            if ev.cancelled:
                continue
            self._now = ev.when
            execute(ev)

    def run_future(self, fut: SimFuture, timeout: Optional[float] = None) -> Any:
        """Drive the simulation until ``fut`` resolves and return its result.

        Convenience for tests: ``sim.run_future(sim.spawn(proc()))``.
        """
        deadline = None if timeout is None else self._now + timeout
        heap = self._heap
        pop = heappop
        execute = self._execute
        while not fut.done:
            if not heap:
                raise SimulationError("simulation quiesced before future resolved")
            entry = pop(heap)
            ev = entry[2]
            if ev.cancelled:
                continue
            if deadline is not None and ev.when > deadline:
                heappush(heap, entry)
                raise SimulationError(f"future unresolved after {timeout}s of sim time")
            self._now = ev.when
            execute(ev)
        return fut.result()
