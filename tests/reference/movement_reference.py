"""``MoveAction``'s collision test as it was before the wall memo.

Lifted verbatim from ``repro.world.movement.MoveAction._blocked``: the
wall grid is walked on every evaluation, on every replica.  The shipped
action remembers the last ``(start, target) -> verdict`` it computed;
``use_reference_movement(monkeypatch)`` swaps this form in so a
differential test can hold the memo to "never changes an outcome".
"""

from __future__ import annotations

from repro.world.geometry import Vec2
from repro.world.movement import COLLISION_DISTANCE, MoveAction


def blocked_by_walking_every_time(self, store, start: Vec2, target: Vec2) -> bool:
    """Collision test: world border, walls, then declared avatars."""
    if self.walls.path_blocked(start, target):
        return True
    for other in self._neighbor_states(store):
        if not other.get("alive", True):
            continue
        other_pos = Vec2(float(other["x"]), float(other["y"]))
        if other_pos.distance_to(target) < COLLISION_DISTANCE:
            return True
    return False


def use_reference_movement(monkeypatch) -> None:
    """Make every ``MoveAction`` walk the walls on every evaluation."""
    monkeypatch.setattr(MoveAction, "_blocked", blocked_by_walking_every_time)
