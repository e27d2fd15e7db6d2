"""Unit + property tests for 2-D geometry primitives."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.world.geometry import (
    Vec2,
    clamp,
    reflect_heading_90,
    segment_intersection_point,
    segments_intersect,
)

coords = st.floats(min_value=-1000, max_value=1000, allow_nan=False)
vectors = st.builds(Vec2, coords, coords)


# ---------------------------------------------------------------------------
# Vec2
# ---------------------------------------------------------------------------
def test_vector_arithmetic():
    assert Vec2(1, 2) + Vec2(3, 4) == Vec2(4, 6)
    assert Vec2(3, 4) - Vec2(1, 1) == Vec2(2, 3)
    assert Vec2(1, 2).scaled(3) == Vec2(3, 6)


def test_norm_and_distance():
    assert Vec2(3, 4).norm() == 5.0
    assert Vec2(0, 0).distance_to(Vec2(3, 4)) == 5.0


def test_dot_and_cross():
    assert Vec2(1, 0).dot(Vec2(0, 1)) == 0.0
    assert Vec2(1, 0).cross(Vec2(0, 1)) == 1.0
    assert Vec2(0, 1).cross(Vec2(1, 0)) == -1.0


def test_normalized_unit_length():
    v = Vec2(3, 4).normalized()
    assert v.norm() == pytest.approx(1.0)
    assert Vec2(0, 0).normalized() == Vec2(0, 0)


def test_heading_and_from_heading_roundtrip():
    for angle in (-3.0, -1.5, 0.0, 0.7, 2.9):
        v = Vec2.from_heading(angle)
        assert v.heading() == pytest.approx(angle)
        assert v.norm() == pytest.approx(1.0)


def test_rotated_quarter_turn():
    v = Vec2(1, 0).rotated(math.pi / 2)
    assert v.x == pytest.approx(0.0, abs=1e-12)
    assert v.y == pytest.approx(1.0)


def test_perpendicular():
    assert Vec2(1, 0).perpendicular() == Vec2(0, 1)
    assert Vec2(0, 1).perpendicular() == Vec2(-1, 0)


def test_clamp():
    assert clamp(5.0, 0.0, 10.0) == 5.0
    assert clamp(-1.0, 0.0, 10.0) == 0.0
    assert clamp(11.0, 0.0, 10.0) == 10.0


# ---------------------------------------------------------------------------
# Segment intersection
# ---------------------------------------------------------------------------
def test_crossing_segments_intersect():
    assert segments_intersect(Vec2(0, 0), Vec2(10, 10), Vec2(0, 10), Vec2(10, 0))


def test_parallel_segments_do_not_intersect():
    assert not segments_intersect(Vec2(0, 0), Vec2(10, 0), Vec2(0, 1), Vec2(10, 1))


def test_touching_endpoint_counts():
    assert segments_intersect(Vec2(0, 0), Vec2(5, 5), Vec2(5, 5), Vec2(10, 0))


def test_collinear_overlap_intersects():
    assert segments_intersect(Vec2(0, 0), Vec2(10, 0), Vec2(5, 0), Vec2(15, 0))


def test_collinear_disjoint_does_not_intersect():
    assert not segments_intersect(Vec2(0, 0), Vec2(4, 0), Vec2(5, 0), Vec2(9, 0))


def test_t_junction_intersects():
    assert segments_intersect(Vec2(0, 0), Vec2(10, 0), Vec2(5, -5), Vec2(5, 0))


def test_intersection_point_of_cross():
    p = segment_intersection_point(Vec2(0, 0), Vec2(10, 10), Vec2(0, 10), Vec2(10, 0))
    assert p.x == pytest.approx(5.0)
    assert p.y == pytest.approx(5.0)


def test_intersection_point_none_when_disjoint():
    assert (
        segment_intersection_point(Vec2(0, 0), Vec2(1, 0), Vec2(5, 5), Vec2(6, 5))
        is None
    )


def test_collinear_overlap_returns_nearest_point():
    p = segment_intersection_point(Vec2(0, 0), Vec2(10, 0), Vec2(4, 0), Vec2(15, 0))
    assert p == Vec2(4.0, 0.0)


# ---------------------------------------------------------------------------
# Bounce
# ---------------------------------------------------------------------------
def test_reflect_heading_is_quarter_turn():
    assert reflect_heading_90(0.0, 1) == pytest.approx(math.pi / 2)
    assert reflect_heading_90(0.0, -1) == pytest.approx(-math.pi / 2)


def test_reflect_heading_stays_canonical():
    h = reflect_heading_90(math.pi - 0.1, 1)
    assert -math.pi <= h <= math.pi


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------
@given(a=vectors, b=vectors, c=vectors, d=vectors)
def test_intersection_is_symmetric(a, b, c, d):
    assert segments_intersect(a, b, c, d) == segments_intersect(c, d, a, b)


@given(a=vectors, b=vectors)
def test_segment_intersects_itself(a, b):
    assert segments_intersect(a, b, a, b)


@given(v=vectors, angle=st.floats(min_value=-math.pi, max_value=math.pi))
def test_rotation_preserves_norm(v, angle):
    assert v.rotated(angle).norm() == pytest.approx(v.norm(), rel=1e-9, abs=1e-9)


@given(h=st.floats(min_value=-math.pi, max_value=math.pi))
def test_four_bounces_return_to_start(h):
    result = h
    for _ in range(4):
        result = reflect_heading_90(result, 1)
    # Up to 2*pi wrapping, four quarter turns are identity.
    assert math.cos(result) == pytest.approx(math.cos(h), abs=1e-9)
    assert math.sin(result) == pytest.approx(math.sin(h), abs=1e-9)
