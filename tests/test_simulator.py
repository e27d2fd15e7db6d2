"""Unit tests for the discrete-event simulator."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.net.simulator import Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_and_run_advances_clock(sim):
    fired = []
    sim.schedule(10.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [10.0]
    assert sim.now == 10.0


def test_events_dispatch_in_time_order(sim):
    order = []
    sim.schedule(30.0, lambda: order.append("c"))
    sim.schedule(10.0, lambda: order.append("a"))
    sim.schedule(20.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order(sim):
    order = []
    for label in "abcde":
        sim.schedule(5.0, lambda label=label: order.append(label))
    sim.run()
    assert order == list("abcde")


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


@pytest.mark.parametrize("delay", [-1.0, float("nan")])
def test_post_rejects_a_delay_that_is_not_a_time(sim, delay):
    for enqueue in (
        lambda: sim.post(delay, print, None),
        lambda: sim.schedule(delay, lambda: None),
    ):
        with pytest.raises(SimulationError):
            enqueue()
    assert sim.pending == 0


def test_posted_and_handle_events_share_one_insertion_order(sim):
    # Handle-free (post) and cancellable (schedule) events are one
    # queue: equal times dispatch in insertion order, and a cancelled
    # handle between them is neither dispatched nor counted.
    order = []
    sim.post(5.0, order.append, "a")
    sim.schedule(5.0, lambda: order.append("b"))
    sim.post_at(5.0, order.append, "c")
    dropped = sim.schedule(5.0, lambda: order.append("never"))
    sim.post(5.0, order.append, "d")
    sim.schedule_at(5.0, lambda: order.append("e"))
    assert (sim.pending, sim.dispatched) == (6, 0)
    dropped.cancel()
    assert (sim.pending, sim.dispatched) == (5, 0)
    for done, label in enumerate("abcde", start=1):
        assert sim.step() is True
        assert order[-1] == label
        assert (sim.pending, sim.dispatched) == (5 - done, done)
    assert sim.step() is False
    assert order == list("abcde")
    assert sim.now == 5.0


def test_zero_delay_runs_at_current_time(sim):
    fired = []
    sim.schedule(0.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0.0]


def test_schedule_at_absolute_time(sim):
    fired = []
    sim.schedule(5.0, lambda: sim.schedule_at(20.0, lambda: fired.append(sim.now)))
    sim.run()
    assert fired == [20.0]


def test_cancelled_event_does_not_fire(sim):
    fired = []
    event = sim.schedule(10.0, lambda: fired.append("x"))
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent(sim):
    event = sim.schedule(10.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()  # must not raise


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(10.0, lambda: fired.append(10))
    sim.schedule(50.0, lambda: fired.append(50))
    sim.run(until=30.0)
    assert fired == [10]
    assert sim.now == 30.0
    sim.run()
    assert fired == [10, 50]


def test_run_until_advances_clock_even_when_queue_drains(sim):
    sim.schedule(5.0, lambda: None)
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_run_until_inclusive_of_boundary_events(sim):
    fired = []
    sim.schedule(30.0, lambda: fired.append(30))
    sim.run(until=30.0)
    assert fired == [30]


def test_step_returns_false_on_empty_queue(sim):
    assert sim.step() is False


def test_step_dispatches_single_event(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    assert sim.step() is True
    assert fired == [1]


def test_events_scheduled_during_dispatch_run(sim):
    fired = []

    def outer():
        sim.schedule(5.0, lambda: fired.append("inner"))

    sim.schedule(10.0, outer)
    sim.run()
    assert fired == ["inner"]
    assert sim.now == 15.0


def test_pending_counts_only_live_events(sim):
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending == 1
    assert keep is not None


def test_pending_is_live_counter_not_scan(sim):
    # pending is maintained incrementally: dispatch and cancel both
    # decrement it exactly once, double-cancel does not double-count.
    events = [sim.schedule(float(i), lambda: None) for i in range(5)]
    assert sim.pending == 5
    events[0].cancel()
    events[0].cancel()
    assert sim.pending == 4
    sim.step()  # dispatches event 1 (event 0 is cancelled)
    assert sim.pending == 3
    events[1].cancel()  # already dispatched: no-op
    assert sim.pending == 3
    sim.run()
    assert sim.pending == 0


def test_cancel_during_own_dispatch_is_noop(sim):
    holder = {}

    def self_cancel():
        holder["event"].cancel()

    holder["event"] = sim.schedule(1.0, self_cancel)
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert sim.pending == 0
    assert sim.dispatched == 2


def test_dispatched_counter(sim):
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.dispatched == 4


def test_call_every_fires_periodically(sim):
    times = []
    sim.call_every(10.0, lambda: times.append(sim.now))
    sim.run(until=35.0)
    assert times == [10.0, 20.0, 30.0]


def test_call_every_start_delay(sim):
    times = []
    sim.call_every(10.0, lambda: times.append(sim.now), start_delay=3.0)
    sim.run(until=25.0)
    assert times == [3.0, 13.0, 23.0]


def test_call_every_stop_function(sim):
    times = []
    stop = sim.call_every(10.0, lambda: times.append(sim.now))
    sim.schedule(25.0, stop)
    sim.run(until=100.0)
    assert times == [10.0, 20.0]


@pytest.mark.parametrize("interval", [0.0, -5.0, float("inf"), float("nan")])
def test_call_every_rejects_an_interval_that_never_recurs(sim, interval):
    with pytest.raises(SimulationError):
        sim.call_every(interval, lambda: None)
    assert sim.pending == 0


def test_call_every_stop_at(sim):
    times = []
    sim.call_every(10.0, lambda: times.append(sim.now), stop_at=40.0)
    sim.run(until=200.0)
    assert times == [10.0, 20.0, 30.0, 40.0]
    assert sim.pending == 0


def test_call_every_rejects_nonpositive_interval(sim):
    with pytest.raises(SimulationError):
        sim.call_every(0.0, lambda: None)


def test_deterministic_across_instances():
    def drive(s: Simulator):
        log = []
        s.schedule(5.0, lambda: log.append(("a", s.now)))
        s.schedule(5.0, lambda: log.append(("b", s.now)))
        s.call_every(2.0, lambda: log.append(("tick", s.now)), stop_at=6.0)
        s.run()
        return log

    assert drive(Simulator()) == drive(Simulator())
