"""Unit tests for the discrete-event kernel."""

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
