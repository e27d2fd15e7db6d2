"""Virtual-world substrate: geometry, spatial indexing, and the concrete
worlds used by the paper's evaluation.

* :mod:`repro.world.manhattan` — the *Manhattan People* synthetic world
  (Section V): avatars walking in a walled rectangle, bouncing 90° off
  obstacles.
* :mod:`repro.world.combat` — the fantasy-MMO actions from the paper's
  motivating examples (arrows, healing, the scrying spell).
* :mod:`repro.world.philosophers` — the dining-philosophers contention
  world from Section III-E.

The world-dependent symbols are re-exported lazily (PEP 562): the
protocol core imports :mod:`repro.world.geometry`, and the worlds import
the protocol core, so eager re-exports here would be circular.
"""

from repro.world.geometry import Vec2, segments_intersect
from repro.world.spatial import UniformGridIndex

__all__ = [
    "CombatWorld",
    "ManhattanWorld",
    "PhilosophersWorld",
    "MoveAction",
    "UniformGridIndex",
    "Vec2",
    "Wall",
    "WallField",
    "World",
    "avatar_object",
    "avatar_position",
    "segments_intersect",
    "set_avatar_position",
]

_LAZY = {
    "CombatWorld": ("repro.world.combat", "CombatWorld"),
    "ManhattanWorld": ("repro.world.manhattan", "ManhattanWorld"),
    "PhilosophersWorld": ("repro.world.philosophers", "PhilosophersWorld"),
    "MoveAction": ("repro.world.movement", "MoveAction"),
    "Wall": ("repro.world.walls", "Wall"),
    "WallField": ("repro.world.walls", "WallField"),
    "World": ("repro.world.base", "World"),
    "avatar_object": ("repro.world.avatar", "avatar_object"),
    "avatar_position": ("repro.world.avatar", "avatar_position"),
    "set_avatar_position": ("repro.world.avatar", "set_avatar_position"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
