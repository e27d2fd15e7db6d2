"""Unit tests for wall generation, the wall field, and avatar helpers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.world.avatar import (
    avatar_id,
    avatar_object,
    avatar_position,
    set_avatar_position,
)
from repro.world.geometry import (
    Vec2,
    segment_intersection_point,
    segments_intersect,
)
from repro.world.walls import Wall, WallField, generate_walls


# ---------------------------------------------------------------------------
# Wall generation
# ---------------------------------------------------------------------------
def test_generate_count_and_bounds():
    walls = generate_walls(100, world_width=200.0, world_height=100.0, seed=1)
    assert len(walls) == 100
    for wall in walls:
        for p in (wall.a, wall.b):
            assert 0.0 <= p.x <= 200.0
            assert 0.0 <= p.y <= 100.0


def test_walls_are_axis_aligned_fixed_length():
    walls = generate_walls(50, world_width=100.0, world_height=100.0, wall_length=10.0)
    for wall in walls:
        assert wall.horizontal or wall.a.x == wall.b.x
        length = wall.a.distance_to(wall.b)
        assert length == pytest.approx(10.0)


def test_generation_is_deterministic():
    kwargs = dict(world_width=100.0, world_height=100.0, seed=42)
    assert generate_walls(20, **kwargs) == generate_walls(20, **kwargs)


def test_different_seeds_differ():
    a = generate_walls(20, world_width=100.0, world_height=100.0, seed=1)
    b = generate_walls(20, world_width=100.0, world_height=100.0, seed=2)
    assert a != b


def test_zero_walls_ok():
    assert generate_walls(0, world_width=50.0, world_height=50.0) == []


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigurationError):
        generate_walls(-1, world_width=100.0, world_height=100.0)
    with pytest.raises(ConfigurationError):
        generate_walls(1, world_width=5.0, world_height=100.0, wall_length=10.0)
    with pytest.raises(ConfigurationError):
        generate_walls(1, world_width=100.0, world_height=100.0, wall_length=0.0)


def test_wall_midpoint_and_bbox():
    wall = Wall(0, Vec2(0, 0), Vec2(10, 0))
    assert wall.midpoint == Vec2(5, 0)
    assert wall.bbox() == (0.0, 0.0, 10.0, 0.0)
    assert wall.horizontal


# ---------------------------------------------------------------------------
# WallField
# ---------------------------------------------------------------------------
@pytest.fixture
def field() -> WallField:
    walls = [
        Wall(0, Vec2(50, 40), Vec2(50, 60)),  # vertical wall at x=50
        Wall(1, Vec2(10, 10), Vec2(20, 10)),  # horizontal wall
    ]
    return WallField(walls, width=100.0, height=100.0)


def test_field_requires_positive_extent():
    with pytest.raises(ConfigurationError):
        WallField((), width=0.0, height=10.0)


def test_clamp_and_inside(field):
    assert field.inside(Vec2(50, 50))
    assert not field.inside(Vec2(150, 50))
    assert field.clamp_inside(Vec2(150, -5)) == Vec2(100.0, 0.0)


def test_walls_near(field):
    nearby = field.walls_near(Vec2(50, 50), 15.0)
    assert [w.index for w in nearby] == [0]
    assert field.walls_near(Vec2(90, 90), 5.0) == []


def test_first_obstruction_hits_crossing_wall(field):
    hit = field.first_obstruction(Vec2(40, 50), Vec2(60, 50))
    assert hit is not None and hit.index == 0


def test_first_obstruction_none_for_clear_path(field):
    assert field.first_obstruction(Vec2(80, 80), Vec2(90, 90)) is None


def test_first_obstruction_prefers_nearest():
    walls = [
        Wall(0, Vec2(30, 0), Vec2(30, 20)),
        Wall(1, Vec2(20, 0), Vec2(20, 20)),
    ]
    field = WallField(walls, width=100.0, height=100.0)
    hit = field.first_obstruction(Vec2(0, 10), Vec2(50, 10))
    assert hit.index == 1  # nearer along the path


def test_path_blocked_by_border(field):
    assert field.path_blocked(Vec2(95, 50), Vec2(105, 50))
    assert not field.path_blocked(Vec2(80, 80), Vec2(90, 90))


def test_path_blocked_by_wall(field):
    assert field.path_blocked(Vec2(40, 50), Vec2(60, 50))


_BRUTE_WALLS = generate_walls(40, world_width=100.0, world_height=100.0, seed=3)
_BRUTE_FIELD = WallField(_BRUTE_WALLS, width=100.0, height=100.0)


@given(
    x0=st.floats(min_value=0, max_value=100),
    y0=st.floats(min_value=0, max_value=100),
    x1=st.floats(min_value=0, max_value=100),
    y1=st.floats(min_value=0, max_value=100),
)
def test_obstruction_matches_brute_force(x0, y0, x1, y1):
    start, end = Vec2(x0, y0), Vec2(x1, y1)

    def distance(wall):
        hit = segment_intersection_point(start, end, wall.a, wall.b)
        return start.distance_to(hit) if hit is not None else 0.0

    blocking = [w for w in _BRUTE_WALLS if segments_intersect(start, end, w.a, w.b)]
    expected = min(blocking, key=lambda w: (distance(w), w.index), default=None)
    assert _BRUTE_FIELD.first_obstruction(start, end) is expected


# ---------------------------------------------------------------------------
# Avatar helpers
# ---------------------------------------------------------------------------
def test_avatar_schema():
    obj = avatar_object(3, Vec2(10, 20), heading=1.0, speed=5.0, health=80)
    assert obj.oid == avatar_id(3) == "avatar:3"
    assert avatar_position(obj) == Vec2(10, 20)
    assert obj["speed"] == 5.0
    assert obj["health"] == 80
    assert obj["alive"] is True
    assert obj["bumps"] == 0


def test_set_avatar_position():
    obj = avatar_object(0, Vec2(0, 0))
    set_avatar_position(obj, Vec2(7, 8))
    assert avatar_position(obj) == Vec2(7, 8)
