"""Uniform grid spatial index.

Both the clients (finding nearby avatars for a move's read set) and the
server (evaluating the First Bound predicate against every client) need
fast "what is within radius r of point p" queries, so we index items in
a uniform grid of square cells.

Walls no longer live here: :class:`repro.world.walls.WallField` keeps
its own immutable per-cell table.  The box-item support
(:meth:`UniformGridIndex.insert_box`, :meth:`UniformGridIndex.query_box`)
has no user under ``src/`` and stays because the perf benchmark's probes
wrap ``query_box`` by name (docs/performance.md, "Leftover").
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Generic, Iterable, Iterator, List, Set, Tuple, TypeVar

from repro.errors import ConfigurationError
from repro.world.geometry import Vec2

ItemId = TypeVar("ItemId")

Cell = Tuple[int, int]


class UniformGridIndex(Generic[ItemId]):
    """Grid index over items with either point or box extent.

    Items are registered with :meth:`insert_point` or
    :meth:`insert_box`; point items can later be moved cheaply with
    :meth:`move`.  Queries return candidate item ids whose cells overlap
    the query region — callers do their own exact filtering, which keeps
    the index geometry-agnostic.
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ConfigurationError(f"cell_size must be positive, got {cell_size}")
        self.cell_size = cell_size
        self._cells: Dict[Cell, Set[ItemId]] = defaultdict(set)
        self._item_cells: Dict[ItemId, List[Cell]] = {}
        self._item_pos: Dict[ItemId, Vec2] = {}

    def __len__(self) -> int:
        return len(self._item_cells)

    def __contains__(self, item: ItemId) -> bool:
        return item in self._item_cells

    def _cell_of(self, p: Vec2) -> Cell:
        return (int(p.x // self.cell_size), int(p.y // self.cell_size))

    def _cells_of_box(
        self, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> Iterator[Cell]:
        cx0 = int(min_x // self.cell_size)
        cy0 = int(min_y // self.cell_size)
        cx1 = int(max_x // self.cell_size)
        cy1 = int(max_y // self.cell_size)
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                yield (cx, cy)

    # -- insertion / removal ---------------------------------------------
    def insert_point(self, item: ItemId, position: Vec2) -> None:
        """Register a point item at ``position``."""
        self.remove(item)
        cell = self._cell_of(position)
        self._cells[cell].add(item)
        self._item_cells[item] = [cell]
        self._item_pos[item] = position

    def insert_box(
        self, item: ItemId, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> None:
        """Register an item occupying an axis-aligned box (e.g. a wall)."""
        self.remove(item)
        cells = list(self._cells_of_box(min_x, min_y, max_x, max_y))
        for cell in cells:
            self._cells[cell].add(item)
        self._item_cells[item] = cells

    def move(self, item: ItemId, position: Vec2) -> None:
        """Update a point item's position (cheap when staying in-cell)."""
        old_cells = self._item_cells.get(item)
        new_cell = self._cell_of(position)
        self._item_pos[item] = position
        if old_cells is not None and len(old_cells) == 1 and old_cells[0] == new_cell:
            return
        self.insert_point(item, position)

    def remove(self, item: ItemId) -> None:
        """Unregister an item (no-op when absent)."""
        cells = self._item_cells.pop(item, None)
        if cells is None:
            return
        for cell in cells:
            bucket = self._cells.get(cell)
            if bucket is not None:
                bucket.discard(item)
                if not bucket:
                    del self._cells[cell]
        self._item_pos.pop(item, None)

    def position_of(self, item: ItemId) -> Vec2:
        """Last registered position of a point item."""
        return self._item_pos[item]

    # -- queries -----------------------------------------------------------
    def query_radius(self, center: Vec2, radius: float) -> Set[ItemId]:
        """Candidate items whose cells intersect the disc of ``radius``
        around ``center``.  Point items are exact-filtered by distance;
        box items are returned as candidates."""
        found: Set[ItemId] = set()
        for cell in self._cells_of_box(
            center.x - radius, center.y - radius, center.x + radius, center.y + radius
        ):
            for item in self._cells.get(cell, ()):
                pos = self._item_pos.get(item)
                if pos is None or pos.distance_to(center) <= radius:
                    found.add(item)
        return found

    def query_radius_points(self, center: Vec2, radius: float) -> List[ItemId]:
        """Point items within ``radius`` of ``center``, as a list.

        Hot-path variant of :meth:`query_radius` for indexes that hold
        only point items (each lives in exactly one cell, so no dedup
        set is needed) — the server's client candidate query runs
        through here, once per validated entry.  The
        distance test compares squared magnitudes, which can differ from
        :meth:`query_radius`'s rounded ``hypot`` by one ulp at the exact
        boundary; callers needing a conservative candidate set should
        inflate ``radius`` accordingly.  Box items are skipped.
        """
        found: List[ItemId] = []
        radius_sq = radius * radius
        cells = self._cells
        item_pos = self._item_pos
        cx = center.x
        cy = center.y
        for cell in self._cells_of_box(cx - radius, cy - radius, cx + radius, cy + radius):
            bucket = cells.get(cell)
            if not bucket:
                continue
            for item in bucket:
                pos = item_pos.get(item)
                if pos is None:
                    continue  # box item: not a point, no position
                dx = pos.x - cx
                dy = pos.y - cy
                if dx * dx + dy * dy <= radius_sq:
                    found.append(item)
        return found

    def query_box(
        self, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> Set[ItemId]:
        """Candidate items whose cells intersect the box."""
        found: Set[ItemId] = set()
        for cell in self._cells_of_box(min_x, min_y, max_x, max_y):
            found |= self._cells.get(cell, set())
        return found

    def nearest(self, center: Vec2, limit: int) -> List[ItemId]:
        """Up to ``limit`` point items nearest to ``center``.

        Expands the search ring by one cell size per step; used to find
        the "closest walls" a move must check, per the paper's workload
        description.
        """
        if limit <= 0 or not self._item_pos:
            return []
        radius = self.cell_size
        max_radius = self.cell_size * 1024  # generous cap to guarantee exit
        while radius <= max_radius:
            candidates = [
                item for item in self.query_radius(center, radius)
                if item in self._item_pos
            ]
            if len(candidates) >= limit or len(candidates) == len(self._item_pos):
                candidates.sort(
                    key=lambda item: (self._item_pos[item].distance_to(center), item)
                )
                return candidates[:limit]
            radius *= 2
        return []

    def items(self) -> Iterable[ItemId]:
        """All registered item ids."""
        return self._item_cells.keys()
