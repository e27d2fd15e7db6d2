"""Avatars: the player-controlled objects of the virtual worlds.

An avatar is an ordinary :class:`~repro.state.objects.WorldObject` with
the attribute schema below; these helpers centralise that schema so the
movement/combat actions and the worlds never disagree about attribute
names.

Attribute schema
----------------
``x``, ``y``
    Position in world units.
``heading``
    Direction of travel, radians in ``[-pi, pi]``.
``speed``
    Units per second (the paper's maximum object velocity ``s``).
``health``
    Hit points (combat worlds); movement leaves it untouched.
``alive``
    Whether the avatar is alive (combat worlds).
``bumps``
    Count of 90° bounces performed (Manhattan People statistic).
"""

from __future__ import annotations

from repro.state.objects import WorldObject
from repro.types import ObjectId, oid
from repro.world.geometry import Vec2


def avatar_id(index: int) -> ObjectId:
    """Canonical object id of avatar ``index``."""
    return oid("avatar", index)


def avatar_object(
    index: int,
    position: Vec2,
    *,
    heading: float = 0.0,
    speed: float = 1.0,
    health: int = 100,
) -> WorldObject:
    """Build a fresh avatar object at ``position``."""
    return WorldObject(
        avatar_id(index),
        {
            "x": position.x,
            "y": position.y,
            "heading": heading,
            "speed": speed,
            "health": health,
            "alive": True,
            "bumps": 0,
        },
    )


def avatar_position(obj: WorldObject) -> Vec2:
    """Position of an avatar object."""
    return Vec2(float(obj["x"]), float(obj["y"]))


def set_avatar_position(obj: WorldObject, position: Vec2) -> None:
    """Write an avatar's position attributes."""
    obj["x"] = position.x
    obj["y"] = position.y
