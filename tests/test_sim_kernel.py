"""Unit tests for the discrete-event kernel."""

import heapq
import itertools
import random

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_later_fires_in_order():
    sim = Simulator()
    fired = []
    sim.call_later(2.0, fired.append, "b")
    sim.call_later(1.0, fired.append, "a")
    sim.call_later(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_simultaneous_events_fifo():
    sim = Simulator()
    fired = []
    for label in "abcde":
        sim.call_later(1.0, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.call_later(5.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
    sim.run()
    assert times == [5.0]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-1.0, lambda: None)


def test_call_at_past_rejected():
    sim = Simulator()
    sim.call_later(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_timer_cancellation():
    sim = Simulator()
    fired = []
    handle = sim.call_later(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert handle.cancelled


def test_call_later_passes_its_arguments():
    sim = Simulator()
    seen = []
    sim.call_later(1.0, lambda a, b: seen.append((a, b, sim.now)), "a", 2)
    sim.run()
    assert seen == [("a", 2, 1.0)]


def test_timer_handle_reports_when_and_cancels():
    sim = Simulator()
    fired = []
    sim.call_later(1.0, lambda: None)
    sim.run()
    handle = sim.call_later(2.5, fired.append, "x")
    other = sim.call_at(4.0, fired.append, "y")
    assert handle.when == 3.5 and other.when == 4.0
    assert not handle.cancelled
    handle.cancel()
    handle.cancel()  # idempotent
    assert handle.cancelled and not other.cancelled
    sim.run()
    assert fired == ["y"]


def test_armed_events_name_the_callable():
    class Node:
        def beat(self, n):
            pass

    def tick():
        pass

    tick.timer_label = "heartbeat"
    sim = Simulator()
    node = Node()
    sim.call_later(2.0, node.beat, 7)
    sim.call_later(1.0, tick)
    sim.call_later(3.0, print, "unused").cancel()
    assert sim.armed_events() == [
        (1.0, "heartbeat"),
        (2.0, "test_armed_events_name_the_callable.<locals>.Node.beat"),
    ]


def test_run_until_leaves_clock_at_deadline():
    sim = Simulator()
    sim.call_later(1.0, lambda: None)
    sim.run_until(10.0)
    assert sim.now == 10.0


def test_run_until_does_not_execute_past_deadline():
    sim = Simulator()
    fired = []
    sim.call_later(1.0, fired.append, 1)
    sim.call_later(5.0, fired.append, 5)
    sim.run_until(3.0)
    assert fired == [1]
    sim.run_until(6.0)
    assert fired == [1, 5]


def test_stop_interrupts_run():
    sim = Simulator()
    fired = []
    sim.call_later(1.0, fired.append, 1)
    sim.call_later(1.0, sim.stop)
    sim.call_later(2.0, fired.append, 2)
    sim.run()
    assert fired == [1]
    sim.run()
    assert fired == [1, 2]


def test_future_result_and_callback_order():
    sim = Simulator()
    seen = []
    fut = sim.create_future()
    fut.add_done_callback(lambda f: seen.append(("cb", f.result())))
    sim.call_later(1.0, fut.set_result, 42)
    sim.run()
    assert seen == [("cb", 42)]
    assert fut.result() == 42


def test_future_double_set_rejected():
    sim = Simulator()
    fut = sim.create_future()
    fut.set_result(1)
    with pytest.raises(SimulationError):
        fut.set_result(2)


def test_future_late_callback_fires():
    sim = Simulator()
    fut = sim.create_future()
    fut.set_result("v")
    seen = []
    fut.add_done_callback(lambda f: seen.append(f.result()))
    sim.run()
    assert seen == ["v"]


def test_future_exception_propagates():
    sim = Simulator()
    fut = sim.create_future()
    fut.set_exception(ValueError("boom"))
    sim.run()
    with pytest.raises(ValueError):
        fut.result()


def test_process_sleep_and_return():
    sim = Simulator()

    def proc():
        yield 1.0
        yield 2.5
        return sim.now

    result = sim.run_future(sim.spawn(proc()))
    assert result == 3.5


def test_process_awaits_future():
    sim = Simulator()
    gate = sim.create_future()

    def proc():
        value = yield gate
        return value * 2

    fut = sim.spawn(proc())
    sim.call_later(4.0, gate.set_result, 21)
    assert sim.run_future(fut) == 42
    assert sim.now == 4.0


def test_process_exception_reaches_awaiter():
    sim = Simulator()

    def proc():
        yield 1.0
        raise RuntimeError("crash")

    fut = sim.spawn(proc())
    sim.run()
    with pytest.raises(RuntimeError):
        fut.result()


def test_process_receives_thrown_exception():
    sim = Simulator()
    gate = sim.create_future()
    caught = []

    def proc():
        try:
            yield gate
        except ValueError as e:
            caught.append(str(e))
        return "survived"

    fut = sim.spawn(proc())
    sim.call_later(1.0, gate.set_exception, ValueError("inner"))
    assert sim.run_future(fut) == "survived"
    assert caught == ["inner"]


def test_process_invalid_yield_errors():
    sim = Simulator()

    def proc():
        yield "not-a-delay"

    fut = sim.spawn(proc())
    sim.run()
    with pytest.raises(SimulationError):
        fut.result()


def test_gather_collects_in_input_order():
    sim = Simulator()
    futs = [sim.create_future() for _ in range(3)]
    sim.call_later(3.0, futs[0].set_result, "a")
    sim.call_later(1.0, futs[1].set_result, "b")
    sim.call_later(2.0, futs[2].set_result, "c")
    out = sim.gather(futs)
    sim.run()
    assert out.result() == ["a", "b", "c"]


def test_gather_empty():
    sim = Simulator()
    out = sim.gather([])
    sim.run()
    assert out.result() == []


def test_gather_propagates_first_exception():
    sim = Simulator()
    futs = [sim.create_future(), sim.create_future()]
    sim.call_later(1.0, futs[0].set_exception, KeyError("k"))
    sim.call_later(2.0, futs[1].set_result, "late")
    out = sim.gather(futs)
    sim.run()
    with pytest.raises(KeyError):
        out.result()


def test_run_future_timeout():
    sim = Simulator()
    fut = sim.create_future()
    sim.call_later(100.0, fut.set_result, None)
    with pytest.raises(SimulationError):
        sim.run_future(fut, timeout=10.0)


def test_run_future_quiesce_error():
    sim = Simulator()
    fut = sim.create_future()  # nothing will ever resolve it
    with pytest.raises(SimulationError):
        sim.run_future(fut)


def test_determinism_same_schedule_twice():
    def build():
        sim = Simulator()
        order = []
        for i in range(50):
            sim.call_later((i * 7919) % 13 * 0.1, order.append, i)
        sim.run()
        return order

    assert build() == build()


def test_process_loop_over_completed_futures_no_recursion():
    """Yielding already-resolved futures thousands of times must not
    blow the stack (resume is deferred, not inline, in that case)."""
    sim = Simulator()
    done = sim.create_future()
    done.set_result("v")

    def proc():
        total = 0
        for _ in range(5000):
            value = yield done
            assert value == "v"
            total += 1
        return total

    assert sim.run_future(sim.spawn(proc())) == 5000


# ---------------------------------------------------------------------------
# handle-free posted events (Simulator.post) beside call_later timers
# ---------------------------------------------------------------------------
def _interleaved(tie_break):
    sim = Simulator(tie_break=tie_break)
    fired = []
    for i in range(6):
        if i % 2:
            sim.post(1.0, fired.append, (f"post{i}",))
        else:
            sim.call_later(1.0, fired.append, f"timer{i}")
    sim.post(0.5, fired.append, ("early",))
    sim.run()
    return fired, sim


@pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
def test_posted_and_timer_events_interleave_by_seq(tie_break):
    fired, sim = _interleaved(tie_break)
    same_time = ["timer0", "post1", "timer2", "post3", "timer4", "post5"]
    if tie_break == "lifo":
        same_time.reverse()
    assert fired == ["early"] + same_time
    assert sim.events_processed == 7  # both kinds count


def test_cancelled_timers_are_skipped_and_not_counted():
    sim = Simulator()
    fired = []
    sim.post(1.0, fired.append, ("posted",))
    sim.call_later(1.0, fired.append, "cancelled").cancel()
    sim.call_later(2.0, fired.append, "timer")
    sim.call_later(3.0, fired.append, "late").cancel()
    sim.run()
    assert fired == ["posted", "timer"]
    assert sim.events_processed == 2


def test_step_one_and_armed_events_see_posted_entries():
    def tick():
        pass

    tick.timer_label = "tick"
    sim = Simulator()
    fired = []
    sim.post(2.0, fired.append, ("posted",))
    sim.call_later(1.0, tick)
    sim.call_later(1.5, fired.append, "gone").cancel()
    assert sim.armed_events() == [(1.0, "tick"), (2.0, "list.append")]
    assert sim.step_one() == 1.0
    assert sim.step_one() == 2.0 and fired == ["posted"]
    assert sim.step_one() is None
    assert sim.events_processed == 2


def test_run_future_drives_posted_events_and_keeps_the_late_one():
    sim = Simulator()
    fut = sim.create_future()
    sim.post(1.0, fut.set_result, ("v",))
    assert sim.run_future(fut) == "v" and sim.now == 1.0
    never = sim.create_future()
    sim.post(5.0, never.set_result, ("late",))
    with pytest.raises(SimulationError):
        sim.run_future(never, timeout=1.0)
    # the entry past the deadline is back on the heap, not lost
    assert sim.armed_events() == [(6.0, "SimFuture.set_result")]


def test_post_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.post(-1.0, print)


class _NullTracer:
    def begin_event(self, time, seq):
        pass

    def end_event(self):
        pass


def test_with_a_tracer_every_hop_schedules_through_call_later(monkeypatch):
    """perfbench's tracer attributes callbacks by patching
    ``Simulator.call_later``: with a tracer attached, each message's
    network hop and CPU job must reach it (none may be posted past it)."""
    from repro.net import Actor, SimCluster

    scheduled = []
    original = Simulator.call_later

    def call_later(self, delay, fn, *args):
        scheduled.append(getattr(fn, "__name__", "?"))
        return original(self, delay, fn, *args)

    monkeypatch.setattr(Simulator, "call_later", call_later)
    routed = []
    original_route = SimCluster.route

    def route(self, msg):
        routed.append(msg.type)
        return original_route(self, msg)

    monkeypatch.setattr(SimCluster, "route", route)

    class Echo(Actor):
        def __init__(self, node_id):
            super().__init__(node_id)
            self.register("ping", lambda m: self.respond(m, "pong"))

    cluster = SimCluster(seed=3)
    cluster.sim.add_tracer(_NullTracer())
    cluster.add_actor(Echo("a"), host="h1")
    cluster.add_actor(Echo("b"), host="h2")
    port = cluster.add_port("client")
    cluster.start()
    for target in ("a", "b", "a"):
        cluster.sim.run_future(port.request(target, "ping", timeout=1.0))
    assert routed == ["ping", "pong"] * 3
    # one network hop per routed message; one CPU job per message that
    # lands on a charged host (the client's port host is free)
    assert scheduled.count("_arrive") == len(routed)
    assert scheduled.count("_finish") == routed.count("ping")
    assert all(entry[2] is None for entry in cluster.sim._heap)


# ---------------------------------------------------------------------------
# timer lanes against a plain-heap reference scheduler
# ---------------------------------------------------------------------------
class _RefFuture:
    def __init__(self):
        self.done = False
        self.value = None

    def set_result(self, value=None):
        self.done = True
        self.value = value


class _RefHandle:
    def __init__(self, when, seq, fn, args):
        self.when, self.seq, self.fn, self.args = when, seq, fn, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _RefScheduler:
    """Every event in one heap, cancelled ones skipped when they pop:
    the schedule the kernel's lanes must reproduce exactly."""

    def __init__(self, tie_break):
        self.now = 0.0
        self.events_processed = 0
        self._heap = []
        self._seq = itertools.count(1) if tie_break == "fifo" else itertools.count(-1, -1)

    def call_later(self, delay, fn, *args):
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        h = _RefHandle(self.now + delay, next(self._seq), fn, args)
        heapq.heappush(self._heap, (h.when, h.seq, h))
        return h

    def post(self, delay, fn, args=()):
        self.call_later(delay, fn, *args)

    def call_at(self, when, fn, *args):
        return self.call_later(when - self.now, fn, *args)

    def call_soon(self, fn, *args):
        return self.call_later(0.0, fn, *args)

    def create_future(self):
        return _RefFuture()

    def _fire(self, h):
        self.now = h.when
        h.fn(*h.args)
        self.events_processed += 1

    def run_until(self, deadline):
        while self._heap and self._heap[0][0] <= deadline:
            h = heapq.heappop(self._heap)[2]
            if not h.cancelled:
                self._fire(h)
        self.now = max(self.now, deadline)

    def run(self):
        while self._heap:
            h = heapq.heappop(self._heap)[2]
            if not h.cancelled:
                self._fire(h)

    def step_one(self):
        while self._heap:
            h = heapq.heappop(self._heap)[2]
            if not h.cancelled:
                self._fire(h)
                return h.when
        return None

    def run_future(self, fut, timeout):
        deadline = self.now + timeout
        while not fut.done:
            if not self._heap:
                raise SimulationError("simulation quiesced before future resolved")
            entry = heapq.heappop(self._heap)
            h = entry[2]
            if h.when > deadline:
                if h.cancelled:
                    continue
                heapq.heappush(self._heap, entry)
                raise SimulationError(f"future unresolved after {timeout}s of sim time")
            if not h.cancelled:
                self._fire(h)
        return fut.value

    def armed_events(self):
        return [(when, h.fn.timer_label) for when, _seq, h in sorted(self._heap)
                if not h.cancelled]


#: a handful of delays every schedule reuses, so lanes grow long
_LANE_DELAYS = (0.0, 0.25, 1.0, 2.5)


class _Driver:
    """Drives one scheduler through a seeded schedule; every decision
    comes from the seed and the firing order, so two schedulers that
    fire alike are driven alike."""

    def __init__(self, sched, seed):
        self.sched = sched
        self.seed = seed
        self.rng = random.Random(seed)
        self.fired = []
        self.checkpoints = []
        self.handles = []
        self.labels = itertools.count()
        self.future = None

    def _event(self, label):
        def fire():
            self.fired.append((self.sched.now, label))
            rng = random.Random(f"{self.seed}:{label}")
            if self.future is not None and rng.random() < 0.1:
                self.future.set_result(label)
                self.future = None
            for _ in range(rng.choice((0, 0, 1, 2))):
                self.schedule(rng)
            if self.handles and rng.random() < 0.4:
                rng.choice(self.handles).cancel()

        fire.timer_label = label
        return fire

    def schedule(self, rng):
        s = self.sched
        label = f"e{next(self.labels)}"
        fn = self._event(label)
        roll = rng.random()
        if roll < 0.25:
            s.post(rng.choice(_LANE_DELAYS + (rng.random() * 2,)), fn)
        elif roll < 0.65:
            self.handles.append(s.call_later(rng.choice(_LANE_DELAYS), fn))
        elif roll < 0.8:
            self.handles.append(s.call_later(rng.random() * 3, fn))
        elif roll < 0.9:
            self.handles.append(s.call_soon(fn))
        else:
            self.handles.append(s.call_at(s.now + rng.random() * 2, fn))

    def checkpoint(self, outcome):
        s = self.sched
        self.checkpoints.append((outcome, s.now, s.events_processed, s.armed_events()))

    def run(self, steps):
        s, rng = self.sched, self.rng
        for _ in range(steps):
            roll = rng.random()
            if roll < 0.45:
                self.schedule(rng)
                outcome = "scheduled"
            elif roll < 0.55:
                if self.handles:
                    rng.choice(self.handles).cancel()
                outcome = "cancelled"
            elif roll < 0.7:
                s.run_until(s.now + rng.random() * 1.5)
                outcome = "ran"
            elif roll < 0.85:
                outcome = s.step_one()
            else:
                if self.future is None:
                    self.future = s.create_future()
                try:
                    outcome = s.run_future(self.future, timeout=rng.random() * 2)
                except SimulationError as e:
                    outcome = str(e)
            self.checkpoint(outcome)
        s.run()
        self.checkpoint("quiescent")
        return self


@pytest.mark.parametrize("tie_break", ["fifo", "lifo"])
@pytest.mark.parametrize("seed", range(12))
def test_lanes_fire_exactly_as_one_heap(tie_break, seed):
    sim = Simulator(tie_break=tie_break)
    got = _Driver(sim, seed).run(150)
    want = _Driver(_RefScheduler(tie_break), seed).run(150)
    assert got.fired == want.fired
    assert got.checkpoints == want.checkpoints
    # each handle carries the sequence number the reference gave it
    assert [(h.when, h.seq) for h in got.handles] == [(h.when, h.seq) for h in want.handles]
    assert sim.armed_events() == [] and not sim._heap
    assert sim._lanes == ({} if tie_break == "fifo" else None)


def test_only_lane_heads_are_heaped():
    sim = Simulator()
    fired = []
    handles = [sim.call_later(1.0, fired.append, i) for i in range(5)]
    sim.call_later(2.0, fired.append, "other")
    assert len(sim._heap) == 2  # one head per delay
    for h in handles[:4]:
        h.cancel()
    assert [label for _, label in sim.armed_events()] == ["list.append"] * 2
    sim.run()
    assert fired == [4, "other"] and sim.events_processed == 2
    assert sim._lanes == {}
