"""Movement in the Manhattan People world.

A :class:`MoveAction` advances an avatar along its heading for a fixed
duration; if the path hits a wall, another avatar, or the world border,
the avatar stops and turns 90° (the paper's bump rule).  The action's
read set is the moving avatar plus the avatars the originating client
*declared* as potential collisions (those it knew to be within the move
effect range); its write set is the moving avatar alone.

Determinism: the computation consults only (a) the declared read set's
values in the store it is applied to, (b) the immutable
:class:`~repro.world.walls.WallField`, and (c) the action's own id (for
the bounce direction), so every replica evaluates it identically.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from repro.core.action import Action, ActionId
from repro.errors import ActionAborted
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore, ValuesDict
from repro.types import AttrValue, ObjectId
from repro.world.geometry import Vec2, reflect_heading_90
from repro.world.walls import WallField

#: Two avatars closer than this collide (world units).
COLLISION_DISTANCE = 2.0


class MoveAction(Action):
    """Advance an avatar for ``duration_s`` seconds of travel."""

    def __init__(
        self,
        action_id: ActionId,
        avatar_oid: ObjectId,
        *,
        neighbors: FrozenSet[ObjectId],
        walls: WallField,
        duration_s: float,
        effect_range: float,
        position: Vec2,
        velocity: Optional[Vec2] = None,
        cost_ms: float = 0.0,
    ) -> None:
        super().__init__(
            action_id,
            reads=frozenset({avatar_oid}) | neighbors,
            writes=frozenset({avatar_oid}),
            position=position,
            radius=effect_range,
            velocity=velocity,
            cost_ms=cost_ms,
        )
        self.avatar_oid = avatar_oid
        self.neighbors = neighbors
        #: The other avatars to test for collision, in the one order
        #: every replica tests them.
        self._others = tuple(sorted(neighbors - {avatar_oid}))
        self.walls = walls
        self.duration_s = duration_s
        #: ``(start, target, verdict)`` of the last wall test.  Every
        #: replica is handed this same object and, by Theorem 1, reads
        #: the same avatar, so all but the first evaluation ask about a
        #: segment already answered.  The field is immutable and the
        #: verdict a pure function of the two points, so the key is the
        #: whole input: a replica whose avatar differs (an optimistic
        #: guess, a rejoiner) misses and walks.
        self._wall_verdict: Optional[Tuple[Vec2, Vec2, bool]] = None

    def compute(self, store: ObjectStore) -> ValuesDict:
        me = store.get(self.avatar_oid)
        if not me.get("alive", True):
            raise ActionAborted(f"{self.avatar_oid} is dead")  # combat worlds
        start = Vec2(float(me["x"]), float(me["y"]))
        heading = float(me["heading"])
        speed = float(me["speed"])
        step = Vec2.from_heading(heading).scaled(speed * self.duration_s)
        target = start + step

        bumped = self._blocked(store, start, target)
        values: Dict[str, AttrValue]
        if bumped:
            sign = 1 if self.stable_nonce() % 2 == 0 else -1
            values = {
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
        """Collision test: world border, walls, then declared avatars."""
        memo = self._wall_verdict
        if memo is None or memo[0] != start or memo[1] != target:
            memo = self._wall_verdict = (
                start, target, self.walls.path_blocked(start, target)
            )
        if memo[2]:
            return True
        for other in self._neighbor_states(store):
            if not other.get("alive", True):
                continue
            other_pos = Vec2(float(other["x"]), float(other["y"]))
            if other_pos.distance_to(target) < COLLISION_DISTANCE:
                return True
        return False

    def _neighbor_states(self, store: ObjectStore) -> Iterator[WorldObject]:
        """The declared neighbours as ``store`` holds them, lazily and
        in collision-test order (a read per avatar actually tested)."""
        for neighbor_oid in self._others:
            yield store.get(neighbor_oid)

    def __repr__(self) -> str:
        return (
            f"MoveAction({self.action_id!r}, {self.avatar_oid}, "
            f"neighbors={len(self.neighbors)})"
        )
