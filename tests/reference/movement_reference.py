"""``MoveAction`` as it was before the evaluation memo.

Lifted from ``repro.world.movement.MoveAction.compute`` and
``_blocked`` with the wall memo taken out: every evaluation, on every
replica, reads the avatar, walks the wall grid, tests the neighbours and
builds the result through ``Action._apply``.  The shipped action
remembers its last evaluation and repeats it for equal consulted inputs;
``use_reference_movement(monkeypatch)`` swaps this form in so a
differential test can hold the memo to "never changes an outcome".
"""

from __future__ import annotations

from repro.core.action import Action
from repro.errors import ActionAborted
from repro.world.geometry import Vec2, reflect_heading_90
from repro.world.movement import COLLISION_DISTANCE, MoveAction


def compute_every_time(self, store):
    me = store.get(self.avatar_oid)
    if not me.get("alive", True):
        raise ActionAborted(f"{self.avatar_oid} is dead")  # combat worlds
    start = Vec2(float(me["x"]), float(me["y"]))
    heading = float(me["heading"])
    speed = float(me["speed"])
    step = Vec2.from_heading(heading).scaled(speed * self.duration_s)
    target = start + step

    bumped = blocked_by_walking_every_time(self, store, start, target)
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
    """Make every ``MoveAction`` (subclasses included) evaluate from
    scratch on every application."""
    monkeypatch.setattr(MoveAction, "_apply", Action._apply)
    monkeypatch.setattr(MoveAction, "compute", compute_every_time)
