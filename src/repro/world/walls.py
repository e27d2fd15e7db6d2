"""Walls of the Manhattan People world.

The paper fixes wall length at 10 units and varies the wall count up to
100 000 in a 1000x1000 world.  Walls are axis-aligned (it *is* called
Manhattan People), generated deterministically from a seed.

Walls are *static geometry*: immutable, identical at every replica, and
therefore kept out of the object store and out of action read sets (a
read set entry for something that can never change would only bloat the
closure computation).  :class:`WallField` holds the walls as a per-cell
table of packed wall records and the world bounds, and answers the path
queries moves need (docs/performance.md, "Wall-collision kernel").
:class:`Wall` is only the value its queries hand out.
"""

from __future__ import annotations

import random
import struct
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import DefaultDict, Dict, Iterable, List, Optional, Tuple

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
    def horizontal(self) -> bool:
        """Whether the wall runs along the x axis."""
        return self.a.y == self.b.y


#: One wall as the collision kernel reads it: ``(ax, ay, bx, by, index)``
#: packed into 36 bytes.  A cell's walls are one ``bytes`` of these,
#: walked with ``iter_unpack``: the table keeps no object per wall.
_RECORD = struct.Struct("=4di")

#: The same records read for their ``index`` alone.
_INDEX = struct.Struct("=32xi")

_Cell = Tuple[int, int]

#: The ``ax``, ``ay``, ``bx``, ``by`` columns, indexed by wall.
_Columns = Tuple[array, array, array, array]


def _cell_span(low: float, high: float, cell_size: float) -> range:
    """Grid coordinates, along one axis, of the cells overlapping
    ``[low, high]``."""
    return range(int(low // cell_size), int(high // cell_size) + 1)


def _build_cell_table(columns: _Columns, cell_size: float) -> Dict[_Cell, bytes]:
    """Per-cell packed wall records over a uniform grid of square cells:
    a wall is listed in every cell its bounding box overlaps, cells in
    first-listed order, records by wall index.  Floor is monotone, so
    the floored ends, put in order, span exactly the box's cells; most
    walls lie in one cell and skip the span loop."""
    pack = _RECORD.pack
    cells: DefaultDict[_Cell, List[bytes]] = defaultdict(list)
    for index, (ax, ay, bx, by) in enumerate(zip(*columns)):
        record = pack(ax, ay, bx, by, index)
        x0, x1 = int(ax // cell_size), int(bx // cell_size)
        y0, y1 = int(ay // cell_size), int(by // cell_size)
        if x0 == x1 and y0 == y1:
            cells[x0, y0].append(record)
            continue
        if x0 > x1:
            x0, x1 = x1, x0
        if y0 > y1:
            y0, y1 = y1, y0
        for cx in range(x0, x1 + 1):
            for cy in range(y0, y1 + 1):
                cells[cx, cy].append(record)
    return {cell: b"".join(records) for cell, records in cells.items()}


class WallField:
    """Static wall geometry: a per-cell table of packed wall records
    (nothing else per wall) and the world bounds.

    Built from :class:`Wall` values numbered ``0, 1, …`` in order, or
    straight from the seeded generator (:meth:`generate`).  Every
    replica holds (a reference to) the same :class:`WallField`; all of
    its queries are pure functions of immutable data, so using it inside
    :meth:`Action.compute` preserves the determinism contract.
    """

    def __init__(
        self,
        walls: Iterable[Wall] = (),
        *,
        width: float,
        height: float,
        cell_size: float = 25.0,
    ) -> None:
        if width <= 0 or height <= 0:
            raise ConfigurationError(f"world must have positive extent, got {width}x{height}")
        if cell_size <= 0:
            raise ConfigurationError(f"cell_size must be positive, got {cell_size}")
        self.width = width
        self.height = height
        self._cell_size = cell_size
        columns: _Columns = (array("d"), array("d"), array("d"), array("d"))
        for position, wall in enumerate(walls):
            if wall.index != position:
                raise ConfigurationError(f"wall {wall.index} listed at {position}")
            for column, value in zip(columns, (*wall.a, *wall.b)):
                column.append(value)
        self._fill(columns)

    def _fill(self, columns: _Columns) -> "WallField":
        self._count = len(columns[0])
        self._cells = _build_cell_table(columns, self._cell_size)
        return self

    @classmethod
    def generate(
        cls,
        count: int,
        *,
        width: float,
        height: float,
        wall_length: float = 10.0,
        seed: int = 0,
        cell_size: float = 25.0,
    ) -> "WallField":
        """``count`` axis-aligned walls uniformly over the world.

        Each wall is horizontal or vertical with equal probability and
        fits entirely inside the world rectangle.  Deterministic in
        ``seed``; the coordinates go straight into the cell records.
        """
        if count < 0:
            raise ConfigurationError(f"wall count must be non-negative, got {count}")
        if wall_length <= 0:
            raise ConfigurationError(f"wall length must be positive, got {wall_length}")
        if width < wall_length or height < wall_length:
            raise ConfigurationError(
                f"world ({width}x{height}) too small for walls of length {wall_length}"
            )
        rng = random.Random(seed)
        draw, uniform = rng.random, rng.uniform
        free_x, free_y = width - wall_length, height - wall_length
        columns = ax, ay, bx, by = tuple(array("d", [0.0]) * count for _ in range(4))
        for i in range(count):
            if draw() < 0.5:  # horizontal
                x = uniform(0.0, free_x)
                y = uniform(0.0, height)
                ax[i], ay[i], bx[i], by[i] = x, y, x + wall_length, y
            else:  # vertical
                x = uniform(0.0, width)
                y = uniform(0.0, free_y)
                ax[i], ay[i], bx[i], by[i] = x, y, x, y + wall_length
        return cls(width=width, height=height, cell_size=cell_size)._fill(columns)

    def __len__(self) -> int:
        return self._count

    def clamp_inside(self, p: Vec2) -> Vec2:
        """``p`` clamped into the world rectangle."""
        return Vec2(clamp(p.x, 0.0, self.width), clamp(p.y, 0.0, self.height))

    def inside(self, p: Vec2) -> bool:
        """Whether ``p`` lies within the world rectangle."""
        return 0.0 <= p.x <= self.width and 0.0 <= p.y <= self.height

    def _cells_of_box(
        self, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> List[bytes]:
        """The non-empty cells overlapping the box."""
        size, cells = self._cell_size, self._cells
        return [
            cells[cx, cy]
            for cx in _cell_span(min_x, max_x, size)
            for cy in _cell_span(min_y, max_y, size)
            if (cx, cy) in cells
        ]

    def _box_near(self, center: Vec2, radius: float) -> List[bytes]:
        (x, y), r = center, radius
        return self._cells_of_box(x - r, y - r, x + r, y + r)

    def walls_near(self, center: Vec2, radius: float) -> List[Wall]:
        """Walls whose grid cells fall within ``radius`` of ``center``,
        by index, decoded from their cell records."""
        ends = {
            index: (Vec2(ax, ay), Vec2(bx, by))
            for records in self._box_near(center, radius)
            for ax, ay, bx, by, index in _RECORD.iter_unpack(records)
        }
        return [Wall(index, *ends[index]) for index in sorted(ends)]

    def count_near(self, center: Vec2, radius: float) -> int:
        """``len(walls_near(center, radius))``: the "walls a client
        sees" count that drives the paper's per-move cost (6.95 ms per
        1000 visible walls)."""
        box = self._box_near(center, radius)
        return len({index for records in box for (index,) in _INDEX.iter_unpack(records)})

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
        the predicate itself, and hits are ranked by the ``Vec2`` code;
        only the winner becomes a :class:`Wall`.
        """
        sx, sy = start
        ex, ey = end
        dx = ex - sx
        dy = ey - sy
        eps = COLLINEAR_EPS
        neg = -COLLINEAR_EPS
        best_key: Tuple[float, int] = (float("inf"), -1)
        best_ends: Optional[Tuple[Vec2, Vec2]] = None
        for records in self._cells_of_box(
            min(sx, ex), min(sy, ey), max(sx, ex), max(sy, ey)
        ):
            for ax, ay, bx, by, index in _RECORD.iter_unpack(records):
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
                a, b = Vec2(ax, ay), Vec2(bx, by)
                hit = segment_intersection_point(start, end, a, b)
                distance = start.distance_to(hit) if hit is not None else 0.0
                key = (distance, index)
                if key < best_key:
                    best_key, best_ends = key, (a, b)
        return None if best_ends is None else Wall(best_key[1], *best_ends)

    def path_blocked(self, start: Vec2, end: Vec2) -> bool:
        """Whether any wall (or the world border) obstructs the path."""
        if not self.inside(end):
            return True
        return self.first_obstruction(start, end) is not None
