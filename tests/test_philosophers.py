"""Unit + integration tests for the Dining Philosophers world
(Section III-E): unbounded closures and Information Bound chain-breaking."""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import SanitizedStore
from repro.core.action import ActionId
from repro.core.engine import SeveConfig, SeveEngine
from repro.errors import ConfigurationError
from repro.world.philosophers import (
    FORK_FREE,
    GrabForksAction,
    PhilosophersConfig,
    PhilosophersWorld,
    fork_id,
    philosopher_id,
)


@pytest.fixture
def world():
    return PhilosophersWorld(5, PhilosophersConfig(spacing=10.0))


@pytest.fixture
def store(world):
    return SanitizedStore(world.initial_objects())


def test_world_layout(world):
    assert world.num_philosophers == 5
    objects = list(world.initial_objects())
    assert len(objects) == 10  # philosophers + forks
    assert world.avatar_of(0) == philosopher_id(0)
    assert world.avatar_of(9) is None
    assert world.max_speed == 0.0


def test_ring_geometry(world):
    # Adjacent seats are ~spacing apart; opposite seats much farther.
    near = world.seat_position(0).distance_to(world.seat_position(1))
    far = world.seat_position(0).distance_to(world.seat_position(2))
    # Chord length is slightly below the arc spacing (2R sin(pi/n)).
    assert near == pytest.approx(10.0, rel=0.1)
    assert near < 10.0
    assert far > near


def test_needs_at_least_two():
    with pytest.raises(ConfigurationError):
        PhilosophersWorld(1)


def test_grab_succeeds_when_forks_free(world, store):
    grab = world.plan_grab(0, ActionId(0, 0))
    grab.apply(store)
    assert store.get(fork_id(0))["holder"] == 0
    assert store.get(fork_id(1))["holder"] == 0
    me = store.get(philosopher_id(0))
    assert me["state"] == "eating"
    assert me["meals"] == 1


def test_grab_fails_benignly_when_fork_taken(world, store):
    world.plan_grab(0, ActionId(0, 0)).apply(store)
    result = world.plan_grab(1, ActionId(1, 0)).apply(store)  # shares fork 1
    assert not result.aborted
    assert store.get(philosopher_id(1))["state"] == "hungry"
    assert store.get(philosopher_id(1))["meals"] == 0
    assert store.get(fork_id(1))["holder"] == 0  # unchanged


def test_release_frees_only_own_forks(world, store):
    world.plan_grab(0, ActionId(0, 0)).apply(store)
    world.plan_release(0, ActionId(0, 1)).apply(store)
    assert store.get(fork_id(0))["holder"] == FORK_FREE
    assert store.get(fork_id(1))["holder"] == FORK_FREE
    assert store.get(philosopher_id(0))["state"] == "thinking"


def test_release_does_not_steal(world, store):
    world.plan_grab(0, ActionId(0, 0)).apply(store)
    world.plan_release(1, ActionId(1, 0)).apply(store)  # never held fork 1
    assert store.get(fork_id(1))["holder"] == 0


def test_grab_sets_are_adjacent_forks(world):
    grab = world.plan_grab(2, ActionId(2, 0))
    assert grab.reads == frozenset(
        {philosopher_id(2), fork_id(2), fork_id(3)}
    )
    assert grab.reads == grab.writes


def test_ring_wraps_at_last_philosopher(world):
    grab = world.plan_grab(4, ActionId(4, 0))
    assert fork_id(0) in grab.writes  # wraps to fork 0


def test_adjacent_grabs_conflict_distant_do_not(world):
    from tests.reference.rwsets_reference import conflicts

    g0 = world.plan_grab(0, ActionId(0, 0))
    g1 = world.plan_grab(1, ActionId(1, 0))
    g2 = world.plan_grab(2, ActionId(2, 0))
    assert conflicts(g0, g1)
    assert not conflicts(g0, g2)


def test_simultaneous_grabs_closure_spans_ring(world):
    """Section III-E's point: pairwise conflicts, world-spanning closure."""
    from tests.reference.rwsets_reference import backward_chain

    grabs = [world.plan_grab(i, ActionId(i, 0)) for i in range(5)]
    chain, _ = backward_chain(grabs[:-1], grabs[-1].reads)
    # The last grab transitively conflicts with every earlier one.
    assert chain == [0, 1, 2, 3]


def run_simultaneous_round(num=12, threshold=None, spacing=10.0):
    """All philosophers grab in the same instant under full SEVE."""
    world = PhilosophersWorld(num, PhilosophersConfig(spacing=spacing))
    config = SeveConfig(
        mode="seve",
        rtt_ms=100.0,
        tick_ms=20.0,
        threshold=threshold if threshold is not None else 1.5 * spacing,
    )
    engine = SeveEngine(world, num, config)
    engine.start(stop_at=10_000)
    for cid in range(num):
        client = engine.client(cid)
        client.submit(world.plan_grab(cid, client.next_action_id(), cost_ms=0.5))
    engine.run(until=5_000)
    engine.run_to_quiescence()
    return world, engine


def test_info_bound_breaks_the_ring_with_few_drops():
    world, engine = run_simultaneous_round(num=12)
    # Some grabs must be dropped to cut the ring ...
    assert engine.total_dropped >= 1
    # ... but the majority commits (the paper: dropping all simultaneous
    # requests would be suboptimal).
    assert engine.total_dropped <= 6
    committed = engine.server.stats.actions_committed
    assert committed == 12 - engine.total_dropped


def test_committed_grabs_respect_mutual_exclusion():
    world, engine = run_simultaneous_round(num=10)
    # No fork may end up claimed by two philosophers: recompute holders
    # from the authoritative state.
    state = engine.state
    holders = {}
    for i in range(10):
        holder = int(state.get(fork_id(i))["holder"])
        if holder != FORK_FREE:
            holders.setdefault(holder, []).append(i)
    for philosopher, forks in holders.items():
        assert len(forks) == 2  # eats with exactly two forks
    eaters = [
        i
        for i in range(10)
        if state.get(philosopher_id(i))["state"] == "eating"
    ]
    assert set(holders) == set(eaters)


def test_huge_threshold_never_drops():
    world, engine = run_simultaneous_round(num=8, threshold=10_000.0)
    assert engine.total_dropped == 0
    assert engine.server.stats.actions_committed == 8
