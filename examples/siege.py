#!/usr/bin/env python3
"""Siege: a destructible environment under SEVE.

Figure 1 of the paper ranks *simulators* above static-world games
because "users can interact with the virtual environment (e.g., destroy
buildings)": the environment itself becomes mutable world state.  In
this world, walls are first-class objects with an ``intact`` attribute;
movement reads the intactness of the walls along its path (they join
the action's read set, unlike Manhattan People's immutable geometry),
and a :class:`DemolishAction` knocks walls down.  So every replica must
agree on whether a passage is open — a move that read a wall conflicts
with the demolition that broke it, and the closure machinery ships the
demolition to everyone it matters to: the kind of interaction
visibility filtering cannot protect.

The script besieges a walled yard: three sappers demolish their way
inward while three defenders patrol.  At the end it verifies that no
replica disagrees with the authoritative state about any wall.

Run:  python examples/siege.py
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional

from repro.core.action import Action, ActionId
from repro.core.engine import SeveConfig, SeveEngine
from repro.errors import ActionAborted
from repro.metrics.consistency import ConsistencyChecker
from repro.metrics.report import Table
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore, ValuesDict
from repro.types import AttrValue, ClientId, ObjectId, oid, oid_index, oid_kind
from repro.world.avatar import avatar_id, avatar_object, avatar_position
from repro.world.base import World
from repro.world.geometry import Vec2, reflect_heading_90, segments_intersect
from repro.world.movement import COLLISION_DISTANCE
from repro.world.walls import Wall, WallField, generate_walls


def wall_id(index: int) -> ObjectId:
    """Object id of wall ``index``."""
    return oid("wall", index)


class SiegeMoveAction(Action):
    """A move that respects only *intact* walls.

    The read set includes the wall objects near the path: whether the
    path is blocked depends on their committed state, so a demolition
    anywhere along the way is a genuine conflict the protocol must (and
    does) ship.
    """

    def __init__(
        self,
        action_id: ActionId,
        avatar_oid: ObjectId,
        *,
        neighbors: FrozenSet[ObjectId],
        wall_objects: FrozenSet[ObjectId],
        geometry: WallField,
        duration_s: float,
        effect_range: float,
        position: Vec2,
        velocity: Optional[Vec2] = None,
        cost_ms: float = 0.0,
    ) -> None:
        super().__init__(
            action_id,
            reads=frozenset({avatar_oid}) | neighbors | wall_objects,
            writes=frozenset({avatar_oid}),
            position=position,
            radius=effect_range,
            velocity=velocity,
            cost_ms=cost_ms,
        )
        self.avatar_oid = avatar_oid
        self.neighbors = neighbors
        self.wall_objects = wall_objects
        self.geometry = geometry
        self.duration_s = duration_s

    def compute(self, store: ObjectStore) -> ValuesDict:
        me = store.get(self.avatar_oid)
        if not me.get("alive", True):
            raise ActionAborted(f"{self.avatar_oid} is dead")
        start = Vec2(float(me["x"]), float(me["y"]))
        heading = float(me["heading"])
        speed = float(me["speed"])
        target = start + Vec2.from_heading(heading).scaled(speed * self.duration_s)

        if self._blocked(store, start, target):
            sign = 1 if self.stable_nonce() % 2 == 0 else -1
            values: Dict[str, AttrValue] = {
                "x": start.x,
                "y": start.y,
                "heading": reflect_heading_90(heading, sign),
                "bumps": int(me.get("bumps", 0)) + 1,
            }
        else:
            values = {
                "x": target.x,
                "y": target.y,
                "heading": heading,
                "bumps": int(me.get("bumps", 0)),
            }
        return {self.avatar_oid: values}

    def _blocked(self, store: ObjectStore, start: Vec2, target: Vec2) -> bool:
        if not self.geometry.inside(target):
            return True
        for wall_oid in sorted(self.wall_objects):
            wall_obj = store.get(wall_oid)
            if not wall_obj.get("intact", True):
                continue  # rubble is walkable
            wall = self.geometry.walls[oid_index(wall_oid)]
            if segments_intersect(start, target, wall.a, wall.b):
                return True
        for neighbor_oid in sorted(self.neighbors):
            other = store.get(neighbor_oid)
            if not other.get("alive", True):
                continue
            other_pos = Vec2(float(other["x"]), float(other["y"]))
            if other_pos.distance_to(target) < COLLISION_DISTANCE:
                return True
        return False


class DemolishAction(Action):
    """Knock a wall down.

    Reads the actor (a dead sapper demolishes nothing) and the wall;
    writes the wall.  Demolishing rubble is a no-op.
    """

    interest_class = "siege"

    def __init__(
        self,
        action_id: ActionId,
        actor_oid: ObjectId,
        wall_oid: ObjectId,
        *,
        position: Vec2,
        reach: float,
        cost_ms: float = 0.0,
    ) -> None:
        super().__init__(
            action_id,
            reads=frozenset({actor_oid, wall_oid}),
            writes=frozenset({wall_oid}),
            position=position,
            radius=reach,
            cost_ms=cost_ms,
        )
        self.actor_oid = actor_oid
        self.wall_oid = wall_oid

    def compute(self, store: ObjectStore) -> ValuesDict:
        actor = store.get(self.actor_oid)
        if not actor.get("alive", True):
            raise ActionAborted(f"{self.actor_oid} is dead")
        wall = store.get(self.wall_oid)
        if not wall.get("intact", True):
            return {}  # already rubble
        return {self.wall_oid: {"intact": False}}


@dataclass(frozen=True)
class SiegeConfig:
    """Parameters of the siege world."""

    width: float = 300.0
    height: float = 300.0
    num_walls: int = 120
    wall_length: float = 10.0
    avatar_speed: float = 10.0
    effect_range: float = 10.0
    #: How far a sapper can reach to demolish a wall.
    demolish_reach: float = 12.0
    move_duration_s: float = 0.3
    spawn_extent: float = 120.0
    seed: int = 0


class SiegeWorld(World):
    """Avatars plus destructible walls."""

    def __init__(self, num_avatars: int, config: Optional[SiegeConfig] = None):
        self.config = config or SiegeConfig()
        cfg = self.config
        self.num_avatars = num_avatars
        self.geometry = WallField(
            generate_walls(
                cfg.num_walls,
                world_width=cfg.width,
                world_height=cfg.height,
                wall_length=cfg.wall_length,
                seed=cfg.seed,
            ),
            width=cfg.width,
            height=cfg.height,
        )
        rng = random.Random(cfg.seed + 1)
        half = min(cfg.spawn_extent, cfg.width, cfg.height) / 2.0
        center = Vec2(cfg.width / 2.0, cfg.height / 2.0)
        self._spawns = [
            self.geometry.clamp_inside(
                Vec2(center.x + rng.uniform(-half, half),
                     center.y + rng.uniform(-half, half))
            )
            for _ in range(num_avatars)
        ]
        self._headings = [rng.uniform(-math.pi, math.pi) for _ in range(num_avatars)]

    # -- World interface ----------------------------------------------------
    def initial_objects(self) -> Iterable[WorldObject]:
        for index in range(self.num_avatars):
            yield avatar_object(
                index,
                self._spawns[index],
                heading=self._headings[index],
                speed=self.config.avatar_speed,
            )
        for wall in self.geometry.walls:
            yield WorldObject(wall_id(wall.index), {"intact": True})

    def avatar_of(self, client_id: ClientId) -> Optional[ObjectId]:
        if 0 <= client_id < self.num_avatars:
            return avatar_id(client_id)
        return None

    @property
    def max_speed(self) -> float:
        return self.config.avatar_speed

    def client_radius(self, client_id: ClientId) -> float:
        return max(self.config.effect_range, self.config.demolish_reach)

    # -- planners --------------------------------------------------------------
    def plan_move(
        self,
        store: ObjectStore,
        client_id: ClientId,
        action_id: ActionId,
        *,
        cost_ms: float = 0.0,
    ) -> SiegeMoveAction:
        """Plan a move whose read set covers the walls along the path."""
        cfg = self.config
        me_oid = avatar_id(client_id)
        me = store.get(me_oid)
        position = avatar_position(me)
        step = cfg.avatar_speed * cfg.move_duration_s
        wall_objects = frozenset(
            wall_id(wall.index)
            for wall in self.geometry.walls_near(position, step + cfg.wall_length)
        )
        neighbors = frozenset(
            obj.oid
            for obj in store.objects()
            if oid_kind(obj.oid) == "avatar"
            and obj.oid != me_oid
            and avatar_position(obj).distance_to(position) <= cfg.effect_range
        )
        heading = float(me["heading"])
        return SiegeMoveAction(
            action_id,
            me_oid,
            neighbors=neighbors,
            wall_objects=wall_objects,
            geometry=self.geometry,
            duration_s=cfg.move_duration_s,
            effect_range=cfg.effect_range,
            position=position,
            velocity=Vec2.from_heading(heading).scaled(float(me["speed"])),
            cost_ms=cost_ms,
        )

    def plan_demolish(
        self,
        store: ObjectStore,
        client_id: ClientId,
        action_id: ActionId,
        *,
        wall_index: Optional[int] = None,
        cost_ms: float = 0.0,
    ) -> Optional[DemolishAction]:
        """Plan demolishing ``wall_index`` (or the nearest wall in reach).

        Returns ``None`` when no wall is within reach.
        """
        cfg = self.config
        me_oid = avatar_id(client_id)
        position = avatar_position(store.get(me_oid))
        if wall_index is None:
            candidates = self.geometry.walls_near(position, cfg.demolish_reach)
            intact = [
                wall
                for wall in candidates
                if wall_id(wall.index) not in store
                or store.get(wall_id(wall.index)).get("intact", True)
            ]
            if not intact:
                return None
            wall_index = min(
                intact,
                key=lambda wall: (wall.midpoint.distance_to(position), wall.index),
            ).index
        return DemolishAction(
            action_id,
            me_oid,
            wall_id(wall_index),
            position=position,
            reach=cfg.demolish_reach,
            cost_ms=cost_ms,
        )


SAPPERS = (0, 1, 2)
DEFENDERS = (3, 4, 5)


def main() -> None:
    world = SiegeWorld(
        6, SiegeConfig(num_walls=150, spawn_extent=80.0, seed=11)
    )
    engine = SeveEngine(
        world,
        6,
        SeveConfig(mode="seve", tick_ms=50.0, seed_full_state=True,
                   enable_audit=True),
    )
    engine.start(stop_at=120_000)

    def act(cid, planner):
        client = engine.client(cid)
        action = planner(client.optimistic, cid, client.next_action_id())
        if action is not None:
            client.submit(action)

    rounds = 20
    for step in range(rounds):
        t = 100.0 + step * 300.0
        for cid in SAPPERS + DEFENDERS:
            engine.sim.schedule(
                t + cid,
                lambda cid=cid: act(
                    cid, lambda s, c, a: world.plan_move(s, c, a, cost_ms=1.5)
                ),
            )
        # Sappers demolish every other round.
        if step % 2 == 0:
            for cid in SAPPERS:
                engine.sim.schedule(
                    t + 150.0 + cid,
                    lambda cid=cid: act(
                        cid,
                        lambda s, c, a: world.plan_demolish(s, c, a, cost_ms=2.0),
                    ),
                )
    engine.run(until=100.0 + rounds * 300.0 + 1000.0)
    engine.run_to_quiescence()

    broken = [
        obj.oid for obj in engine.state.objects()
        if obj.oid.startswith("wall:") and obj.get("intact") is False
    ]
    report = ConsistencyChecker(engine.state).check_all(
        {cid: c.stable for cid, c in engine.clients.items()}
    )
    summary = engine.response_times.summary()

    table = Table("Siege results", ("metric", "value"))
    table.add_row("walls demolished", len(broken))
    table.add_row("actions committed", engine.server.stats.actions_committed)
    table.add_row("moves dropped", engine.total_dropped)
    table.add_row("mean response (ms)", summary.mean)
    table.add_row("consistency", report.summary())
    table.add_row("audit alerts", len(engine.audit.alerts))
    print(table.render())
    print(
        "\nEvery wall's fate is agreed on by every replica: demolitions\n"
        "ride the same transitive closures as avatar state, so the\n"
        "environment itself is strongly consistent."
    )


if __name__ == "__main__":
    main()
