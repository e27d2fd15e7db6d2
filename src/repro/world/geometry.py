"""2-D geometry primitives used by the virtual worlds.

The paper's Manhattan People workload "made heavy use of trigonometric
functions" to give moves a realistic computational cost.  We keep the
geometry real (actual intersection tests, actual trig) while the *cost*
charged to the simulated CPU is supplied by the calibrated cost model in
:mod:`repro.harness.config` — see DESIGN.md, Substitutions.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple


class Vec2(NamedTuple):
    """Immutable 2-D vector (also used as a point)."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":  # type: ignore[override]
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def scaled(self, factor: float) -> "Vec2":
        """This vector scaled by ``factor``."""
        return Vec2(self.x * factor, self.y * factor)

    def dot(self, other: "Vec2") -> float:
        """Dot product."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """2-D cross product (z component)."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length."""
        return math.hypot(self.x, self.y)

    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def normalized(self) -> "Vec2":
        """Unit vector in this direction (zero vector stays zero)."""
        length = self.norm()
        if length == 0.0:
            return Vec2(0.0, 0.0)
        return Vec2(self.x / length, self.y / length)

    def heading(self) -> float:
        """Angle of this vector in radians, in ``[-pi, pi]``."""
        return math.atan2(self.y, self.x)

    def rotated(self, radians: float) -> "Vec2":
        """This vector rotated counter-clockwise by ``radians``."""
        cos_a = math.cos(radians)
        sin_a = math.sin(radians)
        return Vec2(self.x * cos_a - self.y * sin_a, self.x * sin_a + self.y * cos_a)

    def perpendicular(self) -> "Vec2":
        """This vector rotated 90° counter-clockwise — the paper's
        avatars change direction by 90° when they bump into something."""
        return Vec2(-self.y, self.x)

    @staticmethod
    def from_heading(radians: float) -> "Vec2":
        """Unit vector pointing along ``radians``."""
        return Vec2(math.cos(radians), math.sin(radians))


def clamp(value: float, low: float, high: float) -> float:
    """``value`` clamped into ``[low, high]``."""
    return max(low, min(high, value))


#: A cross product within this of zero counts as collinear; the same
#: slack widens the on-segment box test.
COLLINEAR_EPS = 1e-12


def _orientation(cross: float) -> int:
    """Turn direction a cross product stands for: 1 ccw, -1 cw, 0 collinear."""
    if cross > COLLINEAR_EPS:
        return 1
    if cross < -COLLINEAR_EPS:
        return -1
    return 0


def _in_box(
    ax: float, ay: float, bx: float, by: float, px: float, py: float
) -> bool:
    """Whether ``p`` lies in the bounding box of ``ab`` (grown by the
    tolerance) — for ``p`` collinear with ``ab``: on the segment."""
    return (
        min(ax, bx) - COLLINEAR_EPS <= px <= max(ax, bx) + COLLINEAR_EPS
        and min(ay, by) - COLLINEAR_EPS <= py <= max(ay, by) + COLLINEAR_EPS
    )


def _on_segment(a: Vec2, b: Vec2, p: Vec2) -> bool:
    """Whether collinear point ``p`` lies on segment ``ab``."""
    return _in_box(*a, *b, *p)


def segments_intersect_xy(
    p1x: float, p1y: float, p2x: float, p2y: float,
    q1x: float, q1y: float, q2x: float, q2y: float,
) -> bool:
    """Whether segments ``p1p2`` and ``q1q2`` intersect (inclusive), on
    bare coordinates.

    This is the one definition of the predicate:
    :func:`segments_intersect` is this function on unpacked
    :class:`Vec2` s, and the wall-collision kernel
    (:meth:`repro.world.walls.WallField.first_obstruction`) inlines the
    four cross products below — same operations, same order, so the same
    bits — to skip the walls this function must answer ``False`` for.
    ``o1``/``o2`` orient ``q1``/``q2`` about ``p1p2``; ``o3``/``o4``
    orient ``p1``/``p2`` about ``q1q2``.

    All four are needed before the answer can be ``False``.  ``q1`` and
    ``q2`` strictly on one side of ``p1p2`` does *not* rule a hit out at
    this tolerance (``p1`` can still be collinear with the longer
    ``q1q2`` within ``COLLINEAR_EPS`` and inside its box), and neither
    do disjoint bounding boxes; docs/performance.md has the
    counter-example.
    """
    dx = p2x - p1x
    dy = p2y - p1y
    ex = q2x - q1x
    ey = q2y - q1y
    o1 = _orientation(dx * (q1y - p1y) - dy * (q1x - p1x))
    o2 = _orientation(dx * (q2y - p1y) - dy * (q2x - p1x))
    o3 = _orientation(ex * (p1y - q1y) - ey * (p1x - q1x))
    o4 = _orientation(ex * (p2y - q1y) - ey * (p2x - q1x))
    if o1 != o2 and o3 != o4:
        return True
    # Collinear cases: an endpoint of one segment lying on the other.
    if o1 == 0 and _in_box(p1x, p1y, p2x, p2y, q1x, q1y):
        return True
    if o2 == 0 and _in_box(p1x, p1y, p2x, p2y, q2x, q2y):
        return True
    if o3 == 0 and _in_box(q1x, q1y, q2x, q2y, p1x, p1y):
        return True
    if o4 == 0 and _in_box(q1x, q1y, q2x, q2y, p2x, p2y):
        return True
    return False


def segments_intersect(p1: Vec2, p2: Vec2, q1: Vec2, q2: Vec2) -> bool:
    """Whether segments ``p1p2`` and ``q1q2`` intersect (inclusive)."""
    return segments_intersect_xy(*p1, *p2, *q1, *q2)


def segment_intersection_point(
    p1: Vec2, p2: Vec2, q1: Vec2, q2: Vec2
) -> Optional[Vec2]:
    """Intersection point of two segments, or ``None``.

    For collinear overlaps, returns the overlap endpoint nearest ``p1``
    (the mover cares about the *first* obstruction along its path).
    """
    d1 = p2 - p1
    d2 = q2 - q1
    denom = d1.cross(d2)
    if abs(denom) > 1e-12:
        t = (q1 - p1).cross(d2) / denom
        u = (q1 - p1).cross(d1) / denom
        if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
            return p1 + d1.scaled(clamp(t, 0.0, 1.0))
        return None
    # Parallel: intersect only if collinear and overlapping.
    if abs((q1 - p1).cross(d1)) > 1e-12:
        return None
    candidates = [q for q in (q1, q2) if _on_segment(p1, p2, q)]
    candidates += [p for p in (p1, p2) if _on_segment(q1, q2, p)]
    if not candidates:
        return None
    return min(candidates, key=p1.distance_to)


def point_segment_distance(p: Vec2, a: Vec2, b: Vec2) -> float:
    """Distance from point ``p`` to segment ``ab``."""
    ab = b - a
    length_sq = ab.dot(ab)
    if length_sq == 0.0:
        return p.distance_to(a)
    t = clamp((p - a).dot(ab) / length_sq, 0.0, 1.0)
    return p.distance_to(a + ab.scaled(t))


def reflect_heading_90(heading: float, rng_sign: int = 1) -> float:
    """New heading after the paper's 90° bounce.

    ``rng_sign`` (+1 or -1) chooses between the two perpendicular
    directions; the world supplies it from its seeded RNG so bounces are
    deterministic per run but not biased.
    """
    turn = math.pi / 2.0 if rng_sign >= 0 else -math.pi / 2.0
    new_heading = heading + turn
    # Normalise into [-pi, pi] to keep headings canonical.
    while new_heading > math.pi:
        new_heading -= 2 * math.pi
    while new_heading < -math.pi:
        new_heading += 2 * math.pi
    return new_heading


def bounding_box(
    a: Vec2, b: Vec2, margin: float = 0.0
) -> Tuple[float, float, float, float]:
    """Axis-aligned bounding box ``(min_x, min_y, max_x, max_y)`` of a
    segment, optionally inflated by ``margin``."""
    return (
        min(a.x, b.x) - margin,
        min(a.y, b.y) - margin,
        max(a.x, b.x) + margin,
        max(a.y, b.y) + margin,
    )
