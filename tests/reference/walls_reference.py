"""The walls as objects, and the wall queries as they were before the
flat per-cell table.

``generate_walls`` is the object generator ``WallField.generate``
replaced: one frozen :class:`Wall` with two ``Vec2`` s per wall, drawn
in the same order with the same float operations.  The queries are
lifted verbatim from the old ``repro.world.walls.WallField``: walls
inserted by bounding box into a :class:`UniformGridIndex`,
``first_obstruction`` building a candidate set with ``query_box`` and
running the ``Vec2`` predicate on every candidate, ``walls_near``
sorting ``query_radius``.  ``tests/test_walls_differential.py`` holds
the shipped :class:`~repro.world.walls.WallField` to these answers.

``build_cell_table`` is the per-cell table builder as the flat kernel
first shipped it (a ``range`` per axis and ``setdefault`` per cell);
the shipped one-pass builder must return the same ``dict``, key order
included.

The ``Vec2`` predicate is kept here too (``_orientation`` on ``Vec2``
arithmetic), so the oracle does not run through the scalar form the
shipped ``segments_intersect`` now delegates to.
"""

from __future__ import annotations

import math
import random
from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.world.geometry import Vec2, segment_intersection_point
from repro.world.spatial import UniformGridIndex
from repro.world.walls import _RECORD, Wall


def wall_bbox(wall: Wall) -> Tuple[float, float, float, float]:
    """Axis-aligned bounding box ``(min_x, min_y, max_x, max_y)``."""
    (ax, ay), (bx, by) = wall.a, wall.b
    return min(ax, bx), min(ay, by), max(ax, bx), max(ay, by)


def _cell_span(low: float, high: float, cell_size: float) -> range:
    """Grid coordinates, along one axis, of the cells overlapping
    ``[low, high]``."""
    return range(int(low // cell_size), int(high // cell_size) + 1)


def build_cell_table(
    columns: Tuple[array, array, array, array], cell_size: float
) -> Dict[Tuple[int, int], bytes]:
    """Per-cell packed wall records over a uniform grid of square cells:
    a wall is listed in every cell its bounding box overlaps."""
    pack = _RECORD.pack
    cells: Dict[Tuple[int, int], List[bytes]] = {}
    for index, (ax, ay, bx, by) in enumerate(zip(*columns)):
        record = pack(ax, ay, bx, by, index)
        for cx in _cell_span(min(ax, bx), max(ax, bx), cell_size):
            for cy in _cell_span(min(ay, by), max(ay, by), cell_size):
                cells.setdefault((cx, cy), []).append(record)
    return {cell: b"".join(records) for cell, records in cells.items()}


def generate_walls(
    count: int,
    *,
    world_width: float,
    world_height: float,
    wall_length: float = 10.0,
    seed: int = 0,
) -> List[Wall]:
    """Generate ``count`` axis-aligned walls uniformly over the world.

    Each wall is horizontal or vertical with equal probability and fits
    entirely inside the world rectangle.  Deterministic in ``seed``.
    """
    if count < 0:
        raise ConfigurationError(f"wall count must be non-negative, got {count}")
    if wall_length <= 0:
        raise ConfigurationError(f"wall length must be positive, got {wall_length}")
    if world_width < wall_length or world_height < wall_length:
        raise ConfigurationError(
            f"world ({world_width}x{world_height}) too small for "
            f"walls of length {wall_length}"
        )
    rng = random.Random(seed)
    walls: List[Wall] = []
    for index in range(count):
        if rng.random() < 0.5:  # horizontal
            x = rng.uniform(0.0, world_width - wall_length)
            y = rng.uniform(0.0, world_height)
            a, b = Vec2(x, y), Vec2(x + wall_length, y)
        else:  # vertical
            x = rng.uniform(0.0, world_width)
            y = rng.uniform(0.0, world_height - wall_length)
            a, b = Vec2(x, y), Vec2(x, y + wall_length)
        walls.append(Wall(index, a, b))
    return walls


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

    def __init__(
        self,
        walls: Iterable[Wall],
        *,
        width: float = math.inf,
        height: float = math.inf,
        cell_size: float = 25.0,
    ) -> None:
        self.width = width
        self.height = height
        self.walls: Tuple[Wall, ...] = tuple(walls)
        self._index: UniformGridIndex[int] = UniformGridIndex(cell_size)
        for wall in self.walls:
            self._index.insert_box(wall.index, *wall_bbox(wall))

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

    def path_blocked(self, start: Vec2, end: Vec2) -> bool:
        if not (0.0 <= end.x <= self.width and 0.0 <= end.y <= self.height):
            return True
        return self.first_obstruction(start, end) is not None
