"""Unit tests for the queueing resource (Server)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Server, Simulator


def test_single_server_serializes_jobs():
    sim = Simulator()
    srv = Server(sim, capacity=1)
    done = []
    for i in range(3):
        srv.submit(1.0, lambda i: done.append((i, sim.now)), i)
    sim.run()
    assert done == [(0, 1.0), (1, 2.0), (2, 3.0)]


def test_multi_server_parallelism():
    sim = Simulator()
    srv = Server(sim, capacity=2)
    done = []
    for i in range(4):
        srv.submit(1.0, lambda i: done.append((i, sim.now)), i)
    sim.run()
    # two at a time: finish at 1,1,2,2
    assert [t for _, t in done] == [1.0, 1.0, 2.0, 2.0]


def test_fifo_order_preserved():
    sim = Simulator()
    srv = Server(sim, capacity=1)
    order = []
    for i in range(5):
        srv.submit(0.5, order.append, i)
    sim.run()
    assert order == list(range(5))


def test_fifo_completion_order_with_several_slots():
    """Equal demands on a 3-slot server complete in submission order,
    both within a wave and across waves of queued jobs."""
    sim = Simulator()
    srv = Server(sim, capacity=3)
    order = []
    for i in range(8):
        srv.submit(1.0, order.append, i)
    sim.run()
    assert order == list(range(8))
    assert sim.now == 3.0


def test_callback_receives_its_arguments():
    sim = Simulator()
    srv = Server(sim, capacity=1)
    seen = []
    assert srv.submit(0.5, lambda a, b: seen.append((a, b, sim.now)), "x", 2) is None
    sim.run()
    assert seen == [("x", 2, 0.5)]


def test_next_job_is_scheduled_before_the_finished_callback_runs():
    sim = Simulator()
    srv = Server(sim, capacity=1)
    seen = []
    srv.submit(1.0, lambda: seen.append(("first", srv.in_service, srv.queue_len)))
    srv.submit(1.0, lambda: seen.append(("second", srv.in_service, srv.queue_len)))
    sim.run()
    # when the first callback runs the second job already holds the slot
    assert seen == [("first", 1, 0), ("second", 0, 0)]


def test_zero_demand_job_completes():
    sim = Simulator()
    srv = Server(sim, capacity=1)
    done = []
    srv.submit(0.0, done.append, "z")
    sim.run()
    assert done == ["z"]
    assert sim.now == 0.0


def test_zero_demand_job_queues_behind_earlier_ones():
    sim = Simulator()
    srv = Server(sim, capacity=1)
    done = []
    srv.submit(1.0, lambda: done.append(("slow", sim.now)))
    srv.submit(0.0, lambda: done.append(("zero", sim.now)))
    sim.run()
    assert done == [("slow", 1.0), ("zero", 1.0)]


def test_job_without_callback_occupies_the_server():
    sim = Simulator()
    srv = Server(sim, capacity=1)
    done = []
    srv.submit(2.0)
    srv.submit(1.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [3.0]
    assert srv.completions == 2
    assert srv.busy_time == pytest.approx(3.0)


def test_slowdown_stretches_service_time():
    sim = Simulator()
    srv = Server(sim, capacity=1)
    done = []
    srv.set_slowdown(3.0)
    srv.submit(1.0, lambda: done.append(sim.now))
    srv.set_slowdown(1.0)
    srv.submit(1.0, lambda: done.append(sim.now))
    sim.run()
    # the demand is scaled when the job is submitted
    assert done == [3.0, 4.0]
    assert srv.busy_time == pytest.approx(4.0)
    with pytest.raises(SimulationError):
        srv.set_slowdown(0.5)


def test_negative_demand_rejected():
    sim = Simulator()
    srv = Server(sim)
    with pytest.raises(SimulationError):
        srv.submit(-0.1)


def test_invalid_capacity_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Server(sim, capacity=0)


def test_utilization_tracking():
    sim = Simulator()
    srv = Server(sim, capacity=2)
    srv.submit(1.0)
    srv.submit(1.0)
    sim.run()
    # 2 slot-seconds busy over 1 second elapsed with capacity 2 => 100%
    assert srv.utilization(elapsed=1.0) == pytest.approx(1.0)
    assert srv.completions == 2


def test_utilization_zero_elapsed():
    sim = Simulator()
    srv = Server(sim)
    assert srv.utilization(0.0) == 0.0


def test_queue_length_and_max_queue():
    sim = Simulator()
    srv = Server(sim, capacity=1)
    for _ in range(4):
        srv.submit(1.0)
    assert srv.queue_len == 3
    assert srv.in_service == 1
    assert srv.max_queue == 3
    sim.run()
    assert srv.queue_len == 0
    # a shorter backlog later does not lower the high-water mark
    srv.submit(1.0)
    srv.submit(1.0)
    assert srv.max_queue == 3
    sim.run()
    assert srv.busy_time == pytest.approx(6.0)


def test_drain_stats_resets():
    sim = Simulator()
    srv = Server(sim)
    srv.submit(2.0)
    sim.run()
    stats = srv.drain_stats()
    assert stats["completions"] == 1
    assert stats["busy_time"] == pytest.approx(2.0)
    assert srv.completions == 0 and srv.busy_time == 0.0
