"""Tests for the destructible-environment (siege) world of
``examples/siege.py``."""

from __future__ import annotations

import pytest

from examples.siege import (
    DemolishAction,
    SiegeConfig,
    SiegeMoveAction,
    SiegeWorld,
    wall_id,
)
from repro.core.action import ActionId
from repro.core.engine import SeveConfig, SeveEngine
from repro.state.store import ObjectStore
from repro.world.avatar import avatar_id, avatar_object
from repro.world.geometry import Vec2
from repro.world.walls import Wall, WallField


def tiny_world(num_walls=0, **kwargs):
    return SiegeWorld(2, SiegeConfig(num_walls=num_walls, seed=3, **kwargs))


def one_wall_setup():
    """An avatar facing a single wall directly in its path."""
    geometry = WallField(
        [Wall(0, Vec2(55, 40), Vec2(55, 60))], width=100.0, height=100.0
    )
    store = ObjectStore([
        avatar_object(0, Vec2(50, 50), heading=0.0, speed=10.0),
    ])
    from repro.state.objects import WorldObject

    store.put(WorldObject(wall_id(0), {"intact": True}))
    return geometry, store


def make_move(geometry, seq=0):
    return SiegeMoveAction(
        ActionId(0, seq),
        avatar_id(0),
        neighbors=frozenset(),
        wall_objects=frozenset({wall_id(0)}),
        geometry=geometry,
        duration_s=1.0,
        effect_range=10.0,
        position=Vec2(50, 50),
        cost_ms=1.0,
    )


def test_intact_wall_blocks_movement():
    geometry, store = one_wall_setup()
    make_move(geometry).apply(store)
    me = store.get(avatar_id(0))
    assert (me["x"], me["y"]) == (50.0, 50.0)
    assert me["bumps"] == 1


def test_rubble_is_walkable():
    geometry, store = one_wall_setup()
    store.get(wall_id(0))["intact"] = False
    make_move(geometry).apply(store)
    me = store.get(avatar_id(0))
    assert me["x"] == pytest.approx(60.0)
    assert me["bumps"] == 0


def test_move_reads_the_walls_on_its_path():
    geometry, _ = one_wall_setup()
    action = make_move(geometry)
    assert wall_id(0) in action.reads
    assert action.writes == frozenset({avatar_id(0)})


def test_demolish_breaks_wall_once():
    geometry, store = one_wall_setup()
    demolish = DemolishAction(
        ActionId(0, 1), avatar_id(0), wall_id(0),
        position=Vec2(50, 50), reach=12.0,
    )
    result = demolish.apply(store)
    assert store.get(wall_id(0))["intact"] is False
    assert result.written_ids() == frozenset({wall_id(0)})
    # Demolishing rubble is a no-op.
    assert demolish.apply(store).values() == {}


def test_dead_sapper_aborts():
    geometry, store = one_wall_setup()
    store.get(avatar_id(0))["alive"] = False
    demolish = DemolishAction(
        ActionId(0, 1), avatar_id(0), wall_id(0),
        position=Vec2(50, 50), reach=12.0,
    )
    assert demolish.apply(store).aborted


def test_world_objects_include_walls():
    world = tiny_world(num_walls=20)
    objects = list(world.initial_objects())
    kinds = {obj.oid.split(":")[0] for obj in objects}
    assert kinds == {"avatar", "wall"}
    assert len(objects) == 22


def test_plan_move_declares_path_walls():
    world = SiegeWorld(1, SiegeConfig(num_walls=150, seed=9, spawn_extent=40.0))
    store = ObjectStore(world.initial_objects())
    action = world.plan_move(store, 0, ActionId(0, 0), cost_ms=1.0)
    wall_reads = {oid for oid in action.reads if oid.startswith("wall:")}
    # Dense wall field: the path neighbourhood is non-empty.
    assert wall_reads
    assert action.reads >= wall_reads | {avatar_id(0)}


def test_plan_demolish_picks_nearest_intact_wall():
    world = SiegeWorld(1, SiegeConfig(num_walls=150, seed=9, spawn_extent=40.0))
    store = ObjectStore(world.initial_objects())
    action = world.plan_demolish(store, 0, ActionId(0, 0))
    assert action is not None
    store.get(action.wall_oid)["intact"] = False
    second = world.plan_demolish(store, 0, ActionId(0, 1))
    if second is not None:  # another wall may be in reach
        assert second.wall_oid != action.wall_oid


def test_plan_demolish_none_when_out_of_reach():
    world = tiny_world(num_walls=0)
    store = ObjectStore(world.initial_objects())
    assert world.plan_demolish(store, 0, ActionId(0, 0)) is None


def test_demolition_consistent_across_replicas_under_seve():
    """Environment mutation flows through the closure machinery: a wall
    broken by one client is (eventually) rubble on every replica that
    cares, and never 'half-broken'."""
    world = SiegeWorld(3, SiegeConfig(num_walls=80, seed=5, spawn_extent=30.0))
    engine = SeveEngine(
        world, 3,
        SeveConfig(mode="seve", rtt_ms=100.0, tick_ms=20.0, seed_full_state=True),
    )
    engine.start(stop_at=60_000)

    def act(cid, planner):
        client = engine.client(cid)
        action = planner(client.optimistic, cid, client.next_action_id())
        if action is not None:
            client.submit(action)

    # Client 0 demolishes; everyone walks around before and after.
    for step in range(6):
        t = 100.0 + step * 300.0
        for cid in range(3):
            engine.sim.schedule(
                t + cid,
                lambda cid=cid: act(
                    cid,
                    lambda s, c, a: world.plan_move(s, c, a, cost_ms=1.0),
                ),
            )
        if step == 2:
            engine.sim.schedule(
                t + 50.0,
                lambda: act(
                    0,
                    lambda s, c, a: world.plan_demolish(s, c, a, cost_ms=1.0),
                ),
            )
    engine.run(until=4_000)
    engine.run_to_quiescence()

    from repro.metrics.consistency import ConsistencyChecker

    report = ConsistencyChecker(engine.state).check_all(
        {cid: c.stable for cid, c in engine.clients.items()}
    )
    assert report.consistent, report.violations[:3]
    # The demolition actually landed somewhere.
    broken = [
        obj.oid for obj in engine.state.objects()
        if obj.oid.startswith("wall:") and obj.get("intact") is False
    ]
    assert len(broken) <= 1  # at most the one demolition committed
