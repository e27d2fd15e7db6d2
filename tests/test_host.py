"""Unit tests for the host CPU model (sequential queue + saturation)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.net.host import Host
from repro.net.simulator import Simulator


@pytest.fixture
def host(sim):
    return Host(sim, 0)


def test_single_item_completes_after_cost(sim, host):
    done = []
    host.execute(10.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [10.0]


def test_items_run_sequentially(sim, host):
    done = []
    host.execute(10.0, lambda: done.append(("a", sim.now)))
    host.execute(5.0, lambda: done.append(("b", sim.now)))
    sim.run()
    assert done == [("a", 10.0), ("b", 15.0)]


def test_zero_cost_item_preserves_fifo_order(sim, host):
    done = []
    host.execute(10.0, lambda: done.append("a"))
    host.execute(0.0, lambda: done.append("b"))
    host.execute(0.0, lambda: done.append("c"))
    sim.run()
    assert done == ["a", "b", "c"]


def test_negative_cost_rejected(host):
    with pytest.raises(SimulationError):
        host.execute(-1.0, lambda: None)


def test_queue_length_counts_waiting_items(sim, host):
    host.execute(10.0, lambda: None)
    host.execute(10.0, lambda: None)
    host.execute(10.0, lambda: None)
    # One is running, two are waiting.
    assert host.queue_length == 2
    assert host.busy


def test_idle_host_not_busy(host):
    assert not host.busy
    assert host.queue_length == 0


def test_saturation_accumulates_queue_delay(sim, host):
    # Offered load: one 20ms item every 10ms -> unbounded queue growth.
    completion_times = []
    for i in range(5):
        sim.schedule(
            i * 10.0,
            lambda: host.execute(20.0, lambda: completion_times.append(sim.now)),
        )
    sim.run()
    # Items finish every 20ms starting at 20: 20, 40, 60, 80, 100.
    assert completion_times == [20.0, 40.0, 60.0, 80.0, 100.0]
    assert host.total_queue_delay > 0


def test_speed_factor_scales_cost(sim):
    slow = Host(sim, 1, speed_factor=2.0)
    done = []
    slow.execute(10.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [20.0]


def test_speed_factor_must_be_positive(sim):
    with pytest.raises(SimulationError):
        Host(sim, 1, speed_factor=0.0)


def test_cpu_time_and_items_accounting(sim, host):
    host.execute(5.0, lambda: None)
    host.execute(7.0, lambda: None)
    sim.run()
    assert host.cpu_time_used == pytest.approx(12.0)
    assert host.items_completed == 2


def test_utilization_fraction(sim, host):
    host.execute(25.0, lambda: None)
    sim.run(until=100.0)
    assert host.utilization() == pytest.approx(0.25)


def test_utilization_zero_elapsed(sim, host):
    assert host.utilization() == 0.0


def test_work_submitted_from_completion_runs(sim, host):
    done = []

    def first():
        host.execute(5.0, lambda: done.append(("second", sim.now)))

    host.execute(10.0, first)
    sim.run()
    assert done == [("second", 15.0)]


def test_items_interleave_with_simulator_time(sim, host):
    done = []
    host.execute(10.0, lambda: done.append(("work", sim.now)))
    sim.schedule(5.0, lambda: done.append(("event", sim.now)))
    sim.run()
    assert done == [("event", 5.0), ("work", 10.0)]


class ServiceLog:
    """The one observer hook a host calls."""

    def __init__(self):
        self.calls = []

    def on_host_service(self, host_id, start_ms, cost_ms, queue_delay_ms):
        self.calls.append((host_id, start_ms, cost_ms, queue_delay_ms))


def test_scripted_burst_is_served_fifo_with_exact_accounting(sim):
    # Three items at t=0, a fourth arriving mid-burst, a fifth after the
    # host went idle; speed_factor 2 doubles every cost.
    log = ServiceLog()
    host = Host(sim, 7, speed_factor=2.0, obs=log)
    done = []

    def item(label, cost_ms):
        host.execute(cost_ms, lambda: done.append((label, sim.now)))

    item("a", 5.0)
    item("b", 0.0)
    item("c", 1.5)
    sim.schedule(4.0, lambda: item("d", 2.0))
    sim.schedule(30.0, lambda: item("e", 1.0))
    sim.run()

    assert done == [("a", 10.0), ("b", 10.0), ("c", 13.0), ("d", 17.0), ("e", 32.0)]
    assert log.calls == [
        (7, 0.0, 10.0, 0.0),
        (7, 10.0, 0.0, 10.0),
        (7, 10.0, 3.0, 10.0),
        (7, 13.0, 4.0, 9.0),
        (7, 30.0, 2.0, 0.0),
    ]
    assert host.cpu_time_used == 19.0
    assert host.total_queue_delay == 29.0
    assert host.items_completed == 5
    assert not host.busy and host.queue_length == 0
    assert sim.dispatched == 7  # one completion event per item + two arrivals
