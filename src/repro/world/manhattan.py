"""The *Manhattan People* synthetic world of the paper's evaluation.

Avatars move about a rectangular area and collide with walls or other
avatars; whenever an avatar bumps into something it changes direction by
90°.  The number of walls controls the computational complexity per
action, while the number (and density) of participants controls the
expected number of conflicts between actions — exactly the two knobs
Figures 6–8 sweep.

The world object builds the static geometry and initial avatars and
plans move actions against a client's (optimistic) replica; it holds no
mutable world state itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.core.action import ActionId
from repro.errors import ConfigurationError
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore
from repro.types import ClientId, ObjectId, oid_kind
from repro.world.avatar import avatar_id, avatar_object, avatar_position
from repro.world.base import World
from repro.world.geometry import Vec2
from repro.world.movement import MoveAction
from repro.world.walls import WallField


#: The spawn layouts (:attr:`ManhattanConfig.spawn`).
SPAWN_MODES = ("cluster", "grid", "uniform")


@dataclass(frozen=True)
class ManhattanConfig:
    """Parameters of the Manhattan People world (defaults: Table I)."""

    width: float = 1000.0
    height: float = 1000.0
    num_walls: int = 100_000
    wall_length: float = 10.0
    #: s — avatar walking speed, world units per second.
    avatar_speed: float = 10.0
    #: How far an avatar can see other avatars (Table I: 30 units).
    visibility: float = 30.0
    #: Move effect range r (Table I: 10 units) — avatars within r are in
    #: a move's read set (possible collisions).
    effect_range: float = 10.0
    #: Seconds of travel per move (move generation is every 300 ms).
    move_duration_s: float = 0.3
    #: Spawn layout: "cluster" (uniform in a central square of
    #: ``spawn_extent``), "grid" (lattice with ``spawn_spacing`` — the
    #: paper's Figure 8 initial layout), or "uniform" (whole world —
    #: the steady state a long run's random walk converges to, which is
    #: the density regime the Figure 8 / Table II measurements reflect).
    spawn: str = "cluster"
    #: Side of the central spawn square ("cluster" mode).  160 units
    #: calibrates the paper's observed ~6.9 visible avatars at 64
    #: clients with 30-unit visibility.
    spawn_extent: float = 160.0
    #: Lattice pitch ("grid" mode; Figure 8 uses 4 units).
    spawn_spacing: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.spawn not in SPAWN_MODES:
            raise ConfigurationError(f"unknown spawn mode {self.spawn!r}")
        if self.avatar_speed < 0:
            raise ConfigurationError("avatar_speed must be >= 0")


class ManhattanWorld(World):
    """Manhattan People: walls, bouncing avatars, spatial move actions."""

    def __init__(self, num_avatars: int, config: Optional[ManhattanConfig] = None):
        self.config = config or ManhattanConfig()
        self.num_avatars = num_avatars
        cfg = self.config
        self.walls = WallField.generate(
            cfg.num_walls,
            width=cfg.width,
            height=cfg.height,
            wall_length=cfg.wall_length,
            seed=cfg.seed,
        )
        rng = random.Random(cfg.seed + 1)
        self._spawn_positions = self._spawn_layout(rng)
        self._spawn_headings = [
            rng.uniform(-math.pi, math.pi) for _ in range(num_avatars)
        ]

    # ------------------------------------------------------------------
    # World interface
    # ------------------------------------------------------------------
    def initial_objects(self) -> Iterable[WorldObject]:
        for index in range(self.num_avatars):
            yield avatar_object(
                index,
                self._spawn_positions[index],
                heading=self._spawn_headings[index],
                speed=self.config.avatar_speed,
            )

    def avatar_of(self, client_id: ClientId) -> Optional[ObjectId]:
        if 0 <= client_id < self.num_avatars:
            return avatar_id(client_id)
        return None

    @property
    def max_speed(self) -> float:
        return self.config.avatar_speed

    def client_radius(self, client_id: ClientId) -> float:
        # r_C is the maximum influence radius of ANY of the client's
        # future actions.  A client that can observe out to `visibility`
        # has observation actions of that radius, so visibility (not the
        # smaller move effect range) bounds what must be pushed to it —
        # this is what couples the Figure 8 density sweep to client load.
        return max(self.config.visibility, self.config.effect_range)

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def _spawn_layout(self, rng: random.Random) -> List[Vec2]:
        cfg = self.config
        center = Vec2(cfg.width / 2.0, cfg.height / 2.0)
        if cfg.spawn == "uniform":
            positions = [
                Vec2(rng.uniform(0.0, cfg.width), rng.uniform(0.0, cfg.height))
                for _ in range(self.num_avatars)
            ]
        elif cfg.spawn == "grid":
            side = max(1, math.ceil(math.sqrt(self.num_avatars)))
            origin = Vec2(
                center.x - cfg.spawn_spacing * (side - 1) / 2.0,
                center.y - cfg.spawn_spacing * (side - 1) / 2.0,
            )
            positions = [
                Vec2(
                    origin.x + cfg.spawn_spacing * (i % side),
                    origin.y + cfg.spawn_spacing * (i // side),
                )
                for i in range(self.num_avatars)
            ]
        else:
            half = min(cfg.spawn_extent, cfg.width, cfg.height) / 2.0
            positions = [
                Vec2(
                    center.x + rng.uniform(-half, half),
                    center.y + rng.uniform(-half, half),
                )
                for _ in range(self.num_avatars)
            ]
        return [self.walls.clamp_inside(p) for p in positions]

    # ------------------------------------------------------------------
    # Action planning (client-side world logic)
    # ------------------------------------------------------------------
    def plan_move(
        self,
        store: ObjectStore,
        client_id: ClientId,
        action_id: ActionId,
        *,
        cost_ms: float,
    ) -> MoveAction:
        """Create the client's next move from its (optimistic) replica.

        The read set is declared here, from what the client *knows*:
        its avatar plus every known avatar within the move effect range.
        """
        cfg = self.config
        me_oid = avatar_id(client_id)
        me = store.get(me_oid)
        position = avatar_position(me)
        neighbors = frozenset(
            self.avatars_within(store, position, cfg.effect_range, exclude=me_oid)
        )
        heading = float(me["heading"])
        speed = float(me["speed"])
        return MoveAction(
            action_id,
            me_oid,
            neighbors=neighbors,
            walls=self.walls,
            duration_s=cfg.move_duration_s,
            effect_range=cfg.effect_range,
            position=position,
            velocity=Vec2.from_heading(heading).scaled(speed),
            cost_ms=cost_ms,
        )

    # ------------------------------------------------------------------
    # Replica queries (used by planning, stats, and tests)
    # ------------------------------------------------------------------
    @staticmethod
    def avatars_within(
        store: ObjectStore,
        center: Vec2,
        radius: float,
        *,
        exclude: Optional[ObjectId] = None,
    ) -> List[ObjectId]:
        """Known avatars within ``radius`` of ``center`` (sorted ids).
        The distance is :meth:`Vec2.distance_to`'s, taken straight from
        each object's attribute dict."""
        found, (x, y), hypot = [], center, math.hypot
        for obj in store.objects():
            if oid_kind(obj.oid) != "avatar" or obj.oid == exclude:
                continue
            attrs = obj._attrs
            if hypot(float(attrs["x"]) - x, float(attrs["y"]) - y) <= radius:
                found.append(obj.oid)
        return sorted(found)

    def visible_avatar_count(self, store: ObjectStore, client_id: ClientId) -> int:
        """How many other avatars the client's avatar can currently see
        (the Figure 8 x-axis statistic)."""
        me_oid = avatar_id(client_id)
        if me_oid not in store:
            return 0
        position = avatar_position(store.get(me_oid))
        return len(
            self.avatars_within(
                store, position, self.config.visibility, exclude=me_oid
            )
        )

    def __repr__(self) -> str:
        return (
            f"ManhattanWorld({self.num_avatars} avatars, "
            f"{len(self.walls)} walls, {self.config.width:g}x"
            f"{self.config.height:g})"
        )
