"""Walls of the Manhattan People world.

The paper fixes wall length at 10 units and varies the wall count up to
100 000 in a 1000x1000 world.  Walls are axis-aligned (it *is* called
Manhattan People), generated deterministically from a seed.

Walls are *static geometry*: immutable, identical at every replica, and
therefore kept out of the object store and out of action read sets (a
read set entry for something that can never change would only bloat the
closure computation).  :class:`WallField` bundles the walls with a
per-cell table of flat wall records and the world bounds, and answers
the path queries moves need (docs/performance.md, "Wall-collision
kernel").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.world.geometry import (
    COLLINEAR_EPS,
    Vec2,
    clamp,
    segment_intersection_point,
    segments_intersect_xy,
)


@dataclass(frozen=True)
class Wall:
    """An axis-aligned wall segment."""

    index: int
    a: Vec2
    b: Vec2

    @property
    def midpoint(self) -> Vec2:
        """Centre point of the wall (used for spatial indexing)."""
        return Vec2((self.a.x + self.b.x) / 2.0, (self.a.y + self.b.y) / 2.0)

    @property
    def horizontal(self) -> bool:
        """Whether the wall runs along the x axis."""
        return self.a.y == self.b.y

    def bbox(self) -> Tuple[float, float, float, float]:
        """Axis-aligned bounding box ``(min_x, min_y, max_x, max_y)``."""
        return (
            min(self.a.x, self.b.x),
            min(self.a.y, self.b.y),
            max(self.a.x, self.b.x),
            max(self.a.y, self.b.y),
        )


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


#: One wall as the collision kernel reads it: ``(ax, ay, bx, by, index)``.
_Record = Tuple[float, float, float, float, int]

_Cell = Tuple[int, int]


def _cell_span(low: float, high: float, cell_size: float) -> range:
    """Grid coordinates, along one axis, of the cells overlapping
    ``[low, high]``."""
    return range(int(low // cell_size), int(high // cell_size) + 1)


def _build_cell_table(
    walls: Iterable[Wall], cell_size: float
) -> Dict[_Cell, Tuple[_Record, ...]]:
    """Per-cell tuples of wall records over a uniform grid of square
    cells: a wall is listed in every cell its bounding box overlaps."""
    cells: Dict[_Cell, List[_Record]] = {}
    for wall in walls:
        (ax, ay), (bx, by) = wall.a, wall.b
        record = (ax, ay, bx, by, wall.index)
        min_x, min_y, max_x, max_y = wall.bbox()
        for cx in _cell_span(min_x, max_x, cell_size):
            for cy in _cell_span(min_y, max_y, cell_size):
                cells.setdefault((cx, cy), []).append(record)
    return {cell: tuple(records) for cell, records in cells.items()}


class WallField:
    """Static wall geometry with a per-cell wall table and world bounds.

    Every replica holds (a reference to) the same :class:`WallField`;
    all of its queries are pure functions of immutable data, so using it
    inside :meth:`Action.compute` preserves the determinism contract.
    """

    def __init__(
        self,
        walls: Iterable[Wall],
        *,
        width: float,
        height: float,
        cell_size: float = 25.0,
    ) -> None:
        if width <= 0 or height <= 0:
            raise ConfigurationError(
                f"world must have positive extent, got {width}x{height}"
            )
        if cell_size <= 0:
            raise ConfigurationError(f"cell_size must be positive, got {cell_size}")
        self.width = width
        self.height = height
        self.walls: Tuple[Wall, ...] = tuple(walls)
        self._cell_size = cell_size
        self._cells = _build_cell_table(self.walls, cell_size)

    def __len__(self) -> int:
        return len(self.walls)

    def clamp_inside(self, p: Vec2) -> Vec2:
        """``p`` clamped into the world rectangle."""
        return Vec2(clamp(p.x, 0.0, self.width), clamp(p.y, 0.0, self.height))

    def inside(self, p: Vec2) -> bool:
        """Whether ``p`` lies within the world rectangle."""
        return 0.0 <= p.x <= self.width and 0.0 <= p.y <= self.height

    def _cells_of_box(
        self, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> List[Tuple[_Record, ...]]:
        """The non-empty cells overlapping the box."""
        size = self._cell_size
        cells = self._cells
        found = []
        for cx in _cell_span(min_x, max_x, size):
            for cy in _cell_span(min_y, max_y, size):
                records = cells.get((cx, cy))
                if records is not None:
                    found.append(records)
        return found

    def walls_near(self, center: Vec2, radius: float) -> List[Wall]:
        """Walls whose grid cells fall within ``radius`` of ``center``.

        This is the "walls a client sees" set whose size drives the
        paper's per-move cost (6.95 ms per 1000 visible walls).
        """
        x, y = center
        indices = {
            record[4]
            for records in self._cells_of_box(
                x - radius, y - radius, x + radius, y + radius
            )
            for record in records
        }
        return [self.walls[i] for i in sorted(indices)]

    def first_obstruction(self, start: Vec2, end: Vec2) -> Optional[Wall]:
        """The wall a straight move from ``start`` to ``end`` hits first
        (``None`` for a clear path).  Deterministic: distance-first with
        wall index as the tie-breaker.

        The loop inlines the four cross products of
        :func:`~repro.world.geometry.segments_intersect_xy` — the same
        operations in the same order, so the same bits — and skips a
        wall only where that predicate must say no: all four products
        clear of the collinear tolerance, and one pair on the same side.
        Every other wall (a hit, or anything near-collinear) goes through
        the predicate itself, and hits are ranked by the ``Vec2`` code.
        """
        sx, sy = start
        ex, ey = end
        dx = ex - sx
        dy = ey - sy
        eps = COLLINEAR_EPS
        neg = -COLLINEAR_EPS
        best: Optional[Wall] = None
        best_key: Tuple[float, int] = (float("inf"), -1)
        for records in self._cells_of_box(
            min(sx, ex), min(sy, ey), max(sx, ex), max(sy, ey)
        ):
            for ax, ay, bx, by, index in records:
                wx = bx - ax
                wy = by - ay
                c1 = dx * (ay - sy) - dy * (ax - sx)
                c2 = dx * (by - sy) - dy * (bx - sx)
                c3 = wx * (sy - ay) - wy * (sx - ax)
                c4 = wx * (ey - ay) - wy * (ex - ax)
                if (c3 > eps and c4 > eps) or (c3 < neg and c4 < neg):
                    if (c1 > eps or c1 < neg) and (c2 > eps or c2 < neg):
                        continue  # the move lies to one side of the wall's line
                elif (c1 > eps and c2 > eps) or (c1 < neg and c2 < neg):
                    if (c3 > eps or c3 < neg) and (c4 > eps or c4 < neg):
                        continue  # the wall lies to one side of the move's line
                if not segments_intersect_xy(sx, sy, ex, ey, ax, ay, bx, by):
                    continue
                wall = self.walls[index]
                hit = segment_intersection_point(start, end, wall.a, wall.b)
                distance = start.distance_to(hit) if hit is not None else 0.0
                key = (distance, wall.index)
                if key < best_key:
                    best, best_key = wall, key
        return best

    def path_blocked(self, start: Vec2, end: Vec2) -> bool:
        """Whether any wall (or the world border) obstructs the path."""
        if not self.inside(end):
            return True
        return self.first_obstruction(start, end) is not None
