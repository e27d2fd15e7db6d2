"""The column wall field and its kernel against the object oracle.

:class:`~repro.world.walls.WallField` generates its walls straight into
coordinate columns and answers ``first_obstruction``, ``path_blocked``,
``walls_near`` and ``count_near`` from a per-cell table of packed
records with the intersection predicate's cross products inlined;
``tests/reference/walls_reference.py`` is what it replaced (one
``Wall`` object per wall, ``UniformGridIndex`` + the ``Vec2``
predicate).  Every generated wall must be bit-identical, and the two
must agree on the *same* wall for every query — the simulation's
byte-identity rests on it — including the degenerate ones: endpoints on
wall ends and midpoints, collinear overlaps, zero-length moves, and
nudges around the predicate's 1e-12 tolerance.  The per-cell table
itself must equal the one the reference builder makes, key order
included.
"""

from __future__ import annotations

import math
import random
import struct
from array import array
from typing import Iterator, Tuple

import pytest

from repro.world.geometry import Vec2, segments_intersect
from repro.world.spatial import UniformGridIndex
from repro.world.walls import _RECORD, Wall, WallField
from tests.reference.walls_reference import (
    ReferenceWallField,
    build_cell_table,
    generate_walls,
    wall_bbox,
)
from tests.reference.walls_reference import segments_intersect as vec2_segments_intersect

#: Wall count and world size of the benchmark's two wall densities.
DENSITIES = {
    "crowd_k1": dict(count=20_000, width=1000.0, height=1000.0),
    "sprawl": dict(count=10_000, width=4000.0, height=1000.0),
}

#: ... and of the paper's Table I world.
TABLE_I = dict(count=100_000, width=1000.0, height=1000.0)

MOVE_LENGTHS = (0.0, 3.0, 30.0)
AXIS_HEADINGS = (0.0, math.pi / 2.0, math.pi, -math.pi / 2.0)


def _fields(count: int, width: float, height: float, seed: int):
    """The shipped field, generated as ``ManhattanWorld`` does, and the
    oracle over the object generator's walls."""
    walls = generate_walls(count, world_width=width, world_height=height, seed=seed)
    field = WallField.generate(count, width=width, height=height, seed=seed)
    return field, ReferenceWallField(walls, width=width, height=height)


def _bits(wall: Wall) -> bytes:
    return struct.pack("<q4d", wall.index, *wall.a, *wall.b)


@pytest.mark.parametrize(
    "shape", [DENSITIES["sprawl"], DENSITIES["crowd_k1"], TABLE_I], ids=["10k", "20k", "100k"]
)
def test_generator_reproduces_every_wall_bit_for_bit(shape):
    """The column generator draws what the object generator drew, in the
    same order with the same float operations: every wall bit-identical,
    and the table the same as one built from the ``Wall`` list."""
    count, width, height = shape["count"], shape["width"], shape["height"]
    walls = generate_walls(count, world_width=width, world_height=height, seed=0)
    field = WallField.generate(count, width=width, height=height, seed=0)
    assert len(field) == count
    decoded = field.walls_near(Vec2(width / 2, height / 2), max(width, height))
    assert [_bits(wall) for wall in decoded] == [_bits(w) for w in walls]
    assert WallField(walls, width=width, height=height)._cells == field._cells


def _nudged(rng: random.Random, value: float) -> float:
    """``value``, or a neighbour of it around the predicate's tolerance."""
    kind = rng.randrange(8)
    if kind == 0:
        return math.nextafter(value, math.inf)
    if kind == 1:
        return math.nextafter(value, -math.inf)
    if kind == 2:
        return value + rng.choice((1e-12, -1e-12, 9e-13, -9e-13, 1.1e-12, -1.1e-12))
    return value


def _anchor(rng: random.Random, wall: Wall) -> Vec2:
    """A point on the wall's line: an end, the midpoint, somewhere along
    it, or just past an end."""
    t = rng.choice((0.0, 1.0, 0.5, rng.random(), -0.2, 1.2))
    return Vec2(
        wall.a.x + t * (wall.b.x - wall.a.x), wall.a.y + t * (wall.b.y - wall.a.y)
    )


def _queries(
    rng: random.Random, oracle: ReferenceWallField, count: int
) -> Iterator[Tuple[Vec2, Vec2]]:
    """Seeded moves: half uniform over the world, half anchored on one
    of the oracle's walls (start or end on its line, often collinear
    with it), every coordinate possibly nudged."""
    for _ in range(count):
        length = rng.choice(MOVE_LENGTHS)
        if rng.random() < 0.5:
            heading = rng.uniform(-math.pi, math.pi)
        else:
            heading = rng.choice(AXIS_HEADINGS)
        step = Vec2(length * math.cos(heading), length * math.sin(heading))
        if rng.random() < 0.5:
            point = Vec2(rng.uniform(0.0, oracle.width), rng.uniform(0.0, oracle.height))
        else:
            wall = oracle.walls[rng.randrange(len(oracle.walls))]
            point = _anchor(rng, wall)
            if rng.random() < 0.3:  # exactly along the wall: collinear overlap
                along = length if rng.random() < 0.5 else -length
                step = Vec2(along, 0.0) if wall.horizontal else Vec2(0.0, along)
        point = Vec2(_nudged(rng, point.x), _nudged(rng, point.y))
        if rng.random() < 0.5:
            yield point, point + step  # the move starts at the point
        else:
            yield point - step, point  # ... or ends on it


#: Queries per density of the full sweep (``scripts/test.sh`` runs it:
#: ``python -m tests.test_walls_differential``); the suite itself runs
#: the first tenth of the same seeded stream.
FULL_SWEEP = 100_000


@pytest.mark.slow
@pytest.mark.parametrize("density", sorted(DENSITIES))
def test_first_obstruction_returns_the_oracles_wall(density, queries=FULL_SWEEP // 10):
    """Seeded queries over the two densities, 0 mismatches in
    ``first_obstruction`` or ``path_blocked``: 20k of them here, >= 200k
    in the full sweep."""
    field, oracle = _fields(**DENSITIES[density], seed=1)
    rng = random.Random(f"walls-differential-{density}")
    hits = 0
    for start, end in _queries(rng, oracle, queries):
        expected = oracle.first_obstruction(start, end)
        assert field.first_obstruction(start, end) == expected, (start, end)
        assert field.path_blocked(start, end) == oracle.path_blocked(start, end)
        hits += expected is not None
    # The generator must exercise both answers, or the test shows nothing.
    assert queries // 20 < hits < queries - queries // 20


@pytest.mark.parametrize("density", sorted(DENSITIES))
def test_walls_near_returns_the_oracles_list(density):
    field, oracle = _fields(**DENSITIES[density], seed=2)
    rng = random.Random(f"walls-near-{density}")
    for _ in range(2_000):
        center = Vec2(
            _nudged(rng, rng.uniform(-50.0, field.width + 50.0)),
            _nudged(rng, rng.uniform(-50.0, field.height + 50.0)),
        )
        radius = rng.choice((0.0, 5.0, 10.0, 25.0, 60.0))
        expected = oracle.walls_near(center, radius)
        assert field.walls_near(center, radius) == expected
        assert field.count_near(center, radius) == len(expected)


def test_scalar_predicate_matches_the_vec2_predicate():
    """``segments_intersect`` now delegates to the scalar form; the
    oracle keeps the ``Vec2`` arithmetic it used to run."""
    field, oracle = _fields(count=2_000, width=200.0, height=200.0, seed=3)
    rng = random.Random("predicate")
    for start, end in _queries(rng, oracle, 600):
        for wall in field.walls_near(start, 30.0):
            assert segments_intersect(start, end, wall.a, wall.b) == (
                vec2_segments_intersect(start, end, wall.a, wall.b)
            )


# ---------------------------------------------------------------------------
# The two shortcuts the kernel must not take (docs/performance.md)
# ---------------------------------------------------------------------------
def test_wall_on_one_side_of_the_move_can_still_be_hit():
    """Both wall ends strictly clockwise of the move (``o1 == o2 == -1``)
    and the predicate still says hit: the move *starts* on the wall's
    line within tolerance, 9e-13 before the wall's end.  A kernel that
    skips a wall on ``o1 == o2 != 0`` alone reports a clear path."""
    wall = Wall(0, Vec2(105.0, 50.0), Vec2(115.0, 50.0))
    start = Vec2(105.0 - 9e-13, 50.0)
    end = start + Vec2.from_heading(2.0).scaled(3.0)
    step = end - start
    for corner in (wall.a, wall.b):
        assert step.cross(corner - start) < -1e-12
    field = WallField([wall], width=200.0, height=200.0)
    assert len(field._cells) == 1  # wall and move share one cell
    assert vec2_segments_intersect(start, end, wall.a, wall.b)
    assert field.first_obstruction(start, end) == wall
    assert field.path_blocked(start, end)


def test_disjoint_bounding_boxes_can_still_be_hit():
    """The move starts 5e-12 past the wall's end — five tolerances
    outside its bounding box — and leaves at a shallow angle: the near
    wall end is then collinear with the move within tolerance while the
    far one is not, and the crossing clause fires.  A kernel with a
    bounding-box reject reports a clear path."""
    wall = Wall(0, Vec2(105.0, 50.0), Vec2(115.0, 50.0))
    start = Vec2(115.0 + 5e-12, 50.0)
    end = Vec2(start.x + 3.0, 50.1)
    assert min(start.x, end.x) - max(wall.a.x, wall.b.x) > 1e-12
    field = WallField([wall], width=200.0, height=200.0)
    assert vec2_segments_intersect(start, end, wall.a, wall.b)
    assert field.first_obstruction(start, end) == wall


# ---------------------------------------------------------------------------
# The per-cell table
# ---------------------------------------------------------------------------
def _assert_table_matches_insert_box(walls, cell_size: float = 25.0) -> None:
    field = WallField(walls, width=100.0, height=100.0, cell_size=cell_size)
    index: UniformGridIndex[int] = UniformGridIndex(cell_size)
    for wall in walls:
        index.insert_box(wall.index, *wall_bbox(wall))
    table = {
        cell: list(_RECORD.iter_unpack(records)) for cell, records in field._cells.items()
    }
    listed = {cell: sorted(record[-1] for record in records) for cell, records in table.items()}
    assert listed == {cell: sorted(items) for cell, items in index._cells.items()}
    by_index = {wall.index: wall for wall in walls}
    for records in table.values():
        assert len({record[-1] for record in records}) == len(records)
        for ax, ay, bx, by, wall_index in records:
            wall = by_index[wall_index]
            assert (Vec2(ax, ay), Vec2(bx, by)) == (wall.a, wall.b)


def _walls(*ends: Tuple[float, float, float, float]):
    return [Wall(i, Vec2(ax, ay), Vec2(bx, by)) for i, (ax, ay, bx, by) in enumerate(ends)]


#: Hand-made walls on the table's edge cases, in a 100 x 100 world.
TABLE_CASES = {
    "cell_boundaries": _walls(
        (0.0, 0.0, 25.0, 0.0), (25.0, 0.0, 25.0, 25.0), (50.0, 25.0, 50.0, 50.0),
        (0.0, 50.0, 50.0, 50.0), (25.0, 25.0, 25.0, 25.0), (50.0, 0.0, 25.0, 0.0),
        (math.nextafter(25.0, 0.0), 10.0, 25.0, 10.0),
    ),
    "zero_length": _walls(
        (10.0, 10.0, 10.0, 10.0), (30.0, 70.0, 30.0, 70.0), (0.0, 0.0, 0.0, 0.0),
        (10.0, 10.0, 10.0, 10.0),
    ),
    "diagonal_2x2": _walls(
        (20.0, 20.0, 30.0, 30.0), (30.0, 20.0, 20.0, 30.0), (45.0, 55.0, 55.0, 45.0),
        (74.0, 26.0, 76.0, 24.0),
    ),
    "far_edge": _walls(
        (90.0, 100.0, 100.0, 100.0), (100.0, 90.0, 100.0, 100.0),
        (100.0, 100.0, 95.0, 100.0), (99.5, 0.0, 99.5, 100.0),
    ),
    "reversed_and_negative": _walls(
        (15.0, 5.0, 5.0, 5.0), (-30.0, -5.0, -20.0, -5.0), (-0.5, 12.0, -0.5, -12.0),
    ),
    "empty": [],
}


def _case(walls, cell_size: float = 25.0):
    """A hand-made case: its field, and the walls it was built from."""
    return lambda: (
        WallField(walls, width=100.0, height=100.0, cell_size=cell_size),
        walls,
    )


def _generated(count: int, width: float, height: float, seed: int, cell_size: float = 25.0):
    """A generated field, and the object generator's walls for it."""
    return lambda: (
        WallField.generate(count, width=width, height=height, seed=seed, cell_size=cell_size),
        generate_walls(count, world_width=width, world_height=height, seed=seed),
    )


def _columns(walls) -> Tuple[array, array, array, array]:
    """The ``ax``, ``ay``, ``bx``, ``by`` columns of ``walls``, by index."""
    return tuple(
        array("d", [getattr(getattr(wall, end), axis) for wall in walls])
        for end, axis in (("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"))
    )


#: Every field the builder is differenced on: the benchmark's two
#: densities and Table I as ``generate`` builds them, each hand-made case
#: from a ``Wall`` list, and two non-default cell sizes.
TABLE_FIELDS = {
    **{
        name: _generated(**shape, seed=5)
        for name, shape in (*DENSITIES.items(), ("table_i", TABLE_I))
    },
    **{name: _case(walls) for name, walls in TABLE_CASES.items()},
    "cell_size_7.5": _generated(3_000, 300.0, 300.0, seed=6, cell_size=7.5),
    "cell_boundaries_cell_size_10": _case(TABLE_CASES["cell_boundaries"], cell_size=10.0),
}


@pytest.mark.parametrize("name", sorted(TABLE_FIELDS))
def test_cell_table_matches_the_reference_builder(name):
    """The shipped builder returns the reference builder's ``dict``:
    same cells in the same insertion order, same records in each."""
    field, walls = TABLE_FIELDS[name]()
    reference = build_cell_table(_columns(walls), field._cell_size)
    assert list(field._cells.items()) == list(reference.items())


def test_table_lists_each_wall_in_exactly_its_insert_box_cells():
    walls = generate_walls(3_000, world_width=300.0, world_height=300.0, seed=4)
    _assert_table_matches_insert_box(walls)
    _assert_table_matches_insert_box(walls, cell_size=7.5)


def test_table_of_an_empty_field():
    field = WallField((), width=100.0, height=100.0)
    assert field._cells == {}
    assert field.first_obstruction(Vec2(0.0, 0.0), Vec2(100.0, 100.0)) is None
    assert field.walls_near(Vec2(50.0, 50.0), 500.0) == []


def test_table_with_negative_cell_coordinates():
    walls = [
        Wall(0, Vec2(-30.0, -5.0), Vec2(-20.0, -5.0)),  # cells (-2,-1) and (-1,-1)
        Wall(1, Vec2(-0.5, -12.0), Vec2(-0.5, 12.0)),  # straddles y = 0
        Wall(2, Vec2(-25.0, 0.0), Vec2(-25.0, 10.0)),  # exactly on a cell edge
    ]
    _assert_table_matches_insert_box(walls)
    field = WallField(walls, width=100.0, height=100.0)
    oracle = ReferenceWallField(walls, width=100.0, height=100.0)
    assert set(field._cells) >= {(-2, -1), (-1, -1), (-1, 0)}
    for start, end in (
        (Vec2(-22.0, -8.0), Vec2(-22.0, -2.0)),
        (Vec2(-3.0, -1.0), Vec2(3.0, 1.0)),
        (Vec2(-26.0, 5.0), Vec2(-24.0, 5.0)),
        (Vec2(-60.0, -60.0), Vec2(-40.0, -40.0)),
    ):
        assert field.first_obstruction(start, end) == oracle.first_obstruction(start, end)
    assert field.first_obstruction(Vec2(-22.0, -8.0), Vec2(-22.0, -2.0)) == walls[0]
    assert field.walls_near(Vec2(-10.0, -10.0), 20.0) == oracle.walls_near(
        Vec2(-10.0, -10.0), 20.0
    )


if __name__ == "__main__":
    for name in sorted(DENSITIES):
        test_first_obstruction_returns_the_oracles_wall(name, queries=FULL_SWEEP)
        print(f"walls differential, {name}: {FULL_SWEEP} queries, 0 mismatches")
