"""The wall queries as they were before the flat per-cell table.

Lifted verbatim from ``repro.world.walls.WallField``: walls inserted by
bounding box into a :class:`UniformGridIndex`, ``first_obstruction``
building a candidate set with ``query_box`` and running the ``Vec2``
predicate on every candidate, ``walls_near`` sorting ``query_radius``.
``tests/test_walls_differential.py`` holds the shipped
:class:`~repro.world.walls.WallField` to these answers.

The ``Vec2`` predicate is kept here too (``_orientation`` on ``Vec2``
arithmetic), so the oracle does not run through the scalar form the
shipped ``segments_intersect`` now delegates to.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.world.geometry import Vec2, segment_intersection_point
from repro.world.spatial import UniformGridIndex
from repro.world.walls import Wall


def _orientation(a: Vec2, b: Vec2, c: Vec2) -> int:
    """Orientation of the triple: 1 ccw, -1 cw, 0 collinear."""
    cross = (b - a).cross(c - a)
    if cross > 1e-12:
        return 1
    if cross < -1e-12:
        return -1
    return 0


def _on_segment(a: Vec2, b: Vec2, p: Vec2) -> bool:
    """Whether collinear point ``p`` lies on segment ``ab``."""
    return (
        min(a.x, b.x) - 1e-12 <= p.x <= max(a.x, b.x) + 1e-12
        and min(a.y, b.y) - 1e-12 <= p.y <= max(a.y, b.y) + 1e-12
    )


def segments_intersect(p1: Vec2, p2: Vec2, q1: Vec2, q2: Vec2) -> bool:
    """Whether segments ``p1p2`` and ``q1q2`` intersect (inclusive)."""
    o1 = _orientation(p1, p2, q1)
    o2 = _orientation(p1, p2, q2)
    o3 = _orientation(q1, q2, p1)
    o4 = _orientation(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(p1, p2, q1):
        return True
    if o2 == 0 and _on_segment(p1, p2, q2):
        return True
    if o3 == 0 and _on_segment(q1, q2, p1):
        return True
    if o4 == 0 and _on_segment(q1, q2, p2):
        return True
    return False


class ReferenceWallField:
    """``WallField``'s queries over the generic grid index."""

    def __init__(self, walls: Iterable[Wall], *, cell_size: float = 25.0) -> None:
        self.walls: Tuple[Wall, ...] = tuple(walls)
        self._index: UniformGridIndex[int] = UniformGridIndex(cell_size)
        for wall in self.walls:
            self._index.insert_box(wall.index, *wall.bbox())

    def walls_near(self, center: Vec2, radius: float) -> List[Wall]:
        candidates = self._index.query_radius(center, radius)
        return [self.walls[i] for i in sorted(candidates)]

    def first_obstruction(self, start: Vec2, end: Vec2) -> Optional[Wall]:
        min_x, min_y = min(start.x, end.x), min(start.y, end.y)
        max_x, max_y = max(start.x, end.x), max(start.y, end.y)
        candidates = self._index.query_box(min_x, min_y, max_x, max_y)
        best: Optional[Wall] = None
        best_key: Tuple[float, int] = (float("inf"), -1)
        for index in candidates:
            wall = self.walls[index]
            if not segments_intersect(start, end, wall.a, wall.b):
                continue
            hit = segment_intersection_point(start, end, wall.a, wall.b)
            distance = start.distance_to(hit) if hit is not None else 0.0
            key = (distance, wall.index)
            if key < best_key:
                best, best_key = wall, key
        return best
