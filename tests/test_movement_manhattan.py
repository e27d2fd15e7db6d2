"""Unit tests for MoveAction and the Manhattan People world."""

from __future__ import annotations

import math

import pytest

from repro.adversary import _TolerantMoveAction
from repro.analysis.sanitizer import SanitizedStore, SanitizerRecorder
from repro.core.action import ActionId
from repro.core.messages import MessageCodec, SubmitAction
from repro.errors import ConfigurationError, MissingObjectError
from repro.harness.config import WALL_COST_RADIUS
from repro.world.avatar import avatar_id, avatar_object, avatar_position
from repro.world.geometry import Vec2
from repro.world.manhattan import ManhattanConfig, ManhattanWorld
from repro.world.movement import COLLISION_DISTANCE, MoveAction
from repro.world.walls import Wall, WallField
from tests.reference.movement_reference import use_reference_movement


def open_field(width=100.0, height=100.0, walls=()):
    return WallField(walls, width=width, height=height)


def store_with_avatars(*specs):
    """specs: (index, position, heading) tuples."""
    return SanitizedStore(
        avatar_object(i, p, heading=h, speed=10.0) for i, p, h in specs
    )


def move(avatar_index, walls, neighbors=frozenset(), duration=1.0, seq=0):
    return MoveAction(
        ActionId(avatar_index, seq),
        avatar_id(avatar_index),
        neighbors=frozenset(neighbors),
        walls=walls,
        duration_s=duration,
        effect_range=10.0,
        position=Vec2(0, 0),
        cost_ms=1.0,
    )


# ---------------------------------------------------------------------------
# MoveAction
# ---------------------------------------------------------------------------
def test_clear_path_advances():
    store = store_with_avatars((0, Vec2(50, 50), 0.0))
    action = move(0, open_field())
    result = action.apply(store)
    me = store.get("avatar:0")
    assert avatar_position(me) == Vec2(60.0, 50.0)  # 10 u/s for 1 s
    assert me["bumps"] == 0
    assert result.written_ids() == frozenset({"avatar:0"})


def test_wall_blocks_and_turns_90():
    wall = Wall(0, Vec2(55, 40), Vec2(55, 60))
    store = store_with_avatars((0, Vec2(50, 50), 0.0))
    action = move(0, open_field(walls=[wall]))
    action.apply(store)
    me = store.get("avatar:0")
    assert avatar_position(me) == Vec2(50, 50)  # stays put
    assert me["bumps"] == 1
    assert abs(float(me["heading"])) == pytest.approx(math.pi / 2)


# ---------------------------------------------------------------------------
# The evaluation memo: one evaluation per distinct consulted input
# ---------------------------------------------------------------------------
#: Nearly due east.  The memo never keys a zero, and 0.0 is one.
EAST = 0.1


class CountedWalls(WallField):
    """A wall field that counts its grid walks."""

    walks = 0

    def first_obstruction(self, start, end):
        self.walks += 1
        return super().first_obstruction(start, end)


@pytest.fixture
def computes(monkeypatch):
    """Counts ``MoveAction.compute`` calls: the evaluations the memo did
    not repeat."""
    count = {"n": 0}
    real = MoveAction.compute

    def counted(self, store, *args):
        count["n"] += 1
        return real(self, store, *args)

    monkeypatch.setattr(MoveAction, "compute", counted)
    return count


class ReadLog(SanitizedStore):
    """A report-mode sanitized store that logs, in order, every id an
    action reads from it."""

    def __init__(self, objects, log):
        super().__init__(objects, recorder=SanitizerRecorder(mode="report"))
        self.log = log

    def _check_read(self, oid):
        if self._scopes:
            self.log.append(oid)
        super()._check_read(oid)


def evaluations(action, worlds):
    """Apply ``action`` once to a fresh store per spec list in ``worlds``:
    the ids each application read, its outcome, and the violations."""
    log, outcomes = [], []
    for specs in worlds:
        store = ReadLog([avatar_object(i, p, heading=h, speed=10.0) for i, p, h in specs], log)
        try:
            outcomes.append((action.apply(store), store.get(avatar_id(0)).as_dict()))
        except MissingObjectError as missing:
            outcomes.append(("missing", str(missing)))
        outcomes.append(store.recorder.violations)
        log.append("|")
    return log, outcomes


def test_wall_verdict_is_remembered_per_segment_not_per_action(computes):
    # Every replica evaluates the same action object; replicas that read
    # the same avatar ask about the same segment and share one walk, a
    # replica whose avatar differs gets its own.
    wall = Wall(0, Vec2(55, 40), Vec2(55, 60))
    walls = CountedWalls([wall], width=100.0, height=100.0)
    in_the_open = (0, Vec2(20, 50), EAST)
    at_the_wall = (0, Vec2(50, 50), EAST)
    action = move(0, walls, neighbors={avatar_id(1)})
    far = (1, Vec2(80, 20), EAST)

    outcomes = []
    for spec in (in_the_open, at_the_wall, in_the_open):
        store = store_with_avatars(spec, far)
        action.apply(store)
        outcomes.append((store.get("avatar:0")["bumps"], walls.walks))
    assert outcomes == [(0, 1), (1, 2), (0, 3)]

    action.apply(store_with_avatars(in_the_open, far))
    assert (walls.walks, computes["n"]) == (3, 3)  # equal stores: no evaluation
    # Same segment, another neighbour: evaluated, but the walls' verdict
    # on the segment stands.
    action.apply(store_with_avatars(in_the_open, (1, Vec2(80, 21), EAST)))
    assert (walls.walks, computes["n"]) == (3, 4)


def test_equal_consulted_inputs_run_compute_once(computes):
    action = move(0, open_field(), neighbors={avatar_id(1)})
    specs = ((0, Vec2(50, 50), EAST), (1, Vec2(20, 20), EAST))
    stores = [store_with_avatars(*specs) for _ in range(3)]
    results = [action.apply(store) for store in stores]
    assert computes["n"] == 1
    assert results[0] == results[1] == results[2]
    # The repeats wrote the same values back.
    moved = [store.get(avatar_id(0)).as_dict() for store in stores]
    assert moved[0] == moved[1] == moved[2] != avatar_object(0, Vec2(50, 50)).as_dict()


def test_a_neighbour_past_the_one_that_stopped_the_scan_may_differ(computes):
    mover = (0, Vec2(50, 50), EAST)
    target = Vec2(50, 50) + Vec2.from_heading(EAST).scaled(10.0)
    stopper = (1, target, EAST)  # stands on the target: the scan stops here
    action = move(0, open_field(), neighbors={avatar_id(1), avatar_id(2)})
    for elsewhere in (Vec2(10, 10), Vec2(90, 10)):
        store = store_with_avatars(mover, stopper, (2, elsewhere, EAST))
        action.apply(store)
        assert store.get(avatar_id(0))["bumps"] == 1
    assert computes["n"] == 1


def test_a_consulted_neighbour_that_differs_misses(computes):
    mover = (0, Vec2(50, 50), EAST)
    action = move(0, open_field(), neighbors={avatar_id(1), avatar_id(2)})
    for second in (Vec2(10, 10), Vec2(10, 11), Vec2(10, 11)):
        action.apply(store_with_avatars(mover, (1, Vec2(90, 90), EAST), (2, second, EAST)))
    # No collision, so the scan consulted both: the second move misses
    # though its outcome is the same, the third repeats it.
    assert computes["n"] == 2


NAN = float("nan")


@pytest.mark.parametrize(
    "first, second",
    [
        ((0, Vec2(50, 50), 0.0), (1, Vec2(20, 20), EAST)),  # a zero heading
        ((0, Vec2(50, 50), EAST), (1, Vec2(0.0, 20), EAST)),
        ((0, Vec2(50, 50), EAST), (1, Vec2(-0.0, 20), EAST)),
        ((0, Vec2(50, 50), EAST), (1, Vec2(NAN, 20), EAST)),
    ],
    ids=["zero-heading", "zero", "minus-zero", "nan"],
)
def test_a_key_holding_a_zero_or_a_nan_never_hits(computes, first, second):
    action = move(0, open_field(), neighbors={avatar_id(1)})
    for _ in range(2):
        action.apply(store_with_avatars(first, second))
    assert computes["n"] == 2


def test_a_missing_consulted_neighbour_raises_where_the_walk_does(monkeypatch):
    mover = (0, Vec2(50, 50), EAST)
    both = [mover, (1, Vec2(90, 90), EAST), (2, Vec2(10, 10), EAST)]
    worlds = [both, both[:2], both, both[:2]]

    def make():
        return move(0, open_field(), neighbors={avatar_id(1), avatar_id(2)})

    remembered = evaluations(make(), worlds)
    with monkeypatch.context() as patch:
        use_reference_movement(patch)
        walked = evaluations(make(), worlds)
    assert remembered == walked
    assert remembered[1][2] == ("missing", str(MissingObjectError(avatar_id(2))))


def test_tolerant_move_reads_what_the_walk_reads_under_the_sanitizer(monkeypatch):
    # The lying-rs cheater's wire copy hides avatar:2 from its read set
    # and skips it where a replica does not hold it; the membership
    # probe is a read, so each skip is a violation on record.
    mover = (0, Vec2(50, 50), EAST)
    target = Vec2(50, 50) + Vec2.from_heading(EAST).scaled(10.0)
    near, far = (1, Vec2(90, 90), EAST), (2, Vec2(10, 10), EAST)
    worlds = [
        [mover, near, far],
        [mover, near, far],
        [mover, near],
        [mover, near],
        [mover, near, (2, target, EAST)],
        [mover, (1, target, EAST), far],
        [mover, (1, target, EAST)],
    ]

    def make():
        action = _TolerantMoveAction(
            ActionId(0, 0), avatar_id(0), neighbors=frozenset({avatar_id(1), avatar_id(2)}),
            walls=open_field(), duration_s=1.0, effect_range=10.0, position=Vec2(0, 0),
        )
        action.reads = action.reads - {avatar_id(2)}
        return action

    remembered = evaluations(make(), worlds)
    with monkeypatch.context() as patch:
        use_reference_movement(patch)
        walked = evaluations(make(), worlds)
    assert remembered == walked
    assert any(violations for violations in remembered[1][1::2])


def test_decoded_copy_of_an_evaluated_move_walks_again(computes):
    # The memo is a slot on the action, not state of the wall field: the
    # copy another partition decodes starts without it.
    walls = CountedWalls([], width=100.0, height=100.0)
    standing = (0, Vec2(20, 50), EAST)
    action = move(0, walls)
    result = action.apply(store_with_avatars(standing))
    codec = MessageCodec(walls=walls)
    copy = codec.decode(codec.encode(SubmitAction(action))).action
    assert action.apply(store_with_avatars(standing)) == result
    assert (walls.walks, computes["n"]) == (1, 1)
    assert copy.apply(store_with_avatars(standing)) == result
    assert (walls.walks, computes["n"]) == (2, 2)


def test_border_bounce():
    store = store_with_avatars((0, Vec2(95, 50), 0.0))
    action = move(0, open_field())
    action.apply(store)
    me = store.get("avatar:0")
    assert me["bumps"] == 1
    assert avatar_position(me) == Vec2(95, 50)


def test_avatar_collision_uses_declared_neighbors_only():
    blocker_pos = Vec2(60, 50)
    store = store_with_avatars((0, Vec2(50, 50), 0.0), (1, blocker_pos, 0.0))
    # Without declaring avatar:1, the move passes straight through it.
    free = move(0, open_field())
    free.apply(store.snapshot())
    # Declaring it makes the collision visible.
    blocked = move(0, open_field(), neighbors={avatar_id(1)}, seq=1)
    result_store = store.snapshot()
    blocked.apply(result_store)
    me = result_store.get("avatar:0")
    assert me["bumps"] == 1
    assert blocked.reads == frozenset({avatar_id(0), avatar_id(1)})


def test_dead_neighbors_do_not_collide():
    store = store_with_avatars((0, Vec2(50, 50), 0.0), (1, Vec2(60, 50), 0.0))
    store.get(avatar_id(1))["alive"] = False
    action = move(0, open_field(), neighbors={avatar_id(1)})
    action.apply(store)
    assert store.get(avatar_id(0))["bumps"] == 0


def test_collision_distance_boundary():
    target = Vec2(60, 50)
    near = Vec2(60 + COLLISION_DISTANCE - 0.1, 50)
    store = store_with_avatars((0, Vec2(50, 50), 0.0), (1, near, 0.0))
    action = move(0, open_field(), neighbors={avatar_id(1)})
    action.apply(store)
    assert store.get(avatar_id(0))["bumps"] == 1


def test_determinism_across_replicas():
    wall = Wall(0, Vec2(55, 40), Vec2(55, 60))
    field = open_field(walls=[wall])
    a = store_with_avatars((0, Vec2(50, 50), 0.0))
    b = a.snapshot()
    action = move(0, field)
    assert action.apply(a) == action.apply(b)
    assert a.get("avatar:0") == b.get("avatar:0")


def test_bounce_direction_varies_with_action_id():
    wall = Wall(0, Vec2(55, 40), Vec2(55, 60))
    field = open_field(walls=[wall])
    headings = set()
    for seq in range(8):
        store = store_with_avatars((0, Vec2(50, 50), 0.0))
        move(0, field, seq=seq).apply(store)
        headings.add(round(float(store.get("avatar:0")["heading"]), 6))
    assert len(headings) == 2  # both +90 and -90 occur across ids


def test_dead_mover_aborts():
    store = store_with_avatars((0, Vec2(50, 50), 0.0))
    store.get("avatar:0")["alive"] = False
    result = move(0, open_field()).apply(store)
    assert result.aborted


# ---------------------------------------------------------------------------
# ManhattanWorld
# ---------------------------------------------------------------------------
def test_world_initial_objects_and_avatars():
    world = ManhattanWorld(5, ManhattanConfig(num_walls=10, seed=2))
    objects = list(world.initial_objects())
    assert len(objects) == 5
    assert {obj.oid for obj in objects} == {avatar_id(i) for i in range(5)}
    for obj in objects:
        assert world.walls.inside(avatar_position(obj))


def test_world_avatar_of_bounds():
    world = ManhattanWorld(3, ManhattanConfig(num_walls=0))
    assert world.avatar_of(2) == "avatar:2"
    assert world.avatar_of(3) is None
    assert world.avatar_of(-2) is None


def test_world_is_deterministic_per_seed():
    a = ManhattanWorld(6, ManhattanConfig(num_walls=30, seed=9))
    b = ManhattanWorld(6, ManhattanConfig(num_walls=30, seed=9))
    assert list(a.initial_objects()) == list(b.initial_objects())


def test_grid_spawn_spacing():
    world = ManhattanWorld(
        4, ManhattanConfig(num_walls=0, spawn="grid", spawn_spacing=4.0)
    )
    positions = [avatar_position(o) for o in world.initial_objects()]
    assert positions[0].distance_to(positions[1]) == pytest.approx(4.0)


def test_uniform_spawn_covers_world():
    world = ManhattanWorld(
        50, ManhattanConfig(num_walls=0, spawn="uniform", seed=1)
    )
    positions = [avatar_position(o) for o in world.initial_objects()]
    xs = [p.x for p in positions]
    assert max(xs) - min(xs) > world.config.width * 0.5


def test_unknown_spawn_mode_rejected():
    with pytest.raises(ConfigurationError):
        ManhattanConfig(spawn="everywhere")


def test_plan_move_declares_neighbors_within_effect_range():
    config = ManhattanConfig(num_walls=0, effect_range=10.0)
    world = ManhattanWorld(3, config)
    store = store_with_avatars(
        (0, Vec2(100, 100), 0.0),
        (1, Vec2(105, 100), 0.0),  # within range
        (2, Vec2(150, 100), 0.0),  # outside
    )
    action = world.plan_move(store, 0, ActionId(0, 0), cost_ms=2.0)
    assert action.reads == frozenset({avatar_id(0), avatar_id(1)})
    assert action.writes == frozenset({avatar_id(0)})
    assert action.cost_ms == 2.0
    assert action.velocity is not None


def test_client_radius_is_visibility():
    world = ManhattanWorld(
        2, ManhattanConfig(num_walls=0, visibility=30.0, effect_range=10.0)
    )
    assert world.client_radius(0) == 30.0


def test_visible_avatar_count():
    config = ManhattanConfig(num_walls=0, visibility=20.0)
    world = ManhattanWorld(3, config)
    store = store_with_avatars(
        (0, Vec2(100, 100), 0.0),
        (1, Vec2(110, 100), 0.0),
        (2, Vec2(170, 100), 0.0),
    )
    assert world.visible_avatar_count(store, 0) == 1
    store = store_with_avatars((1, Vec2(110, 100), 0.0))
    assert world.visible_avatar_count(store, 0) == 0


def test_visible_wall_count_scales_with_walls():
    """The walls cost model's input: walls within ``WALL_COST_RADIUS``."""
    few = ManhattanWorld(1, ManhattanConfig(num_walls=50, seed=4))
    many = ManhattanWorld(1, ManhattanConfig(num_walls=2000, seed=4))
    center = Vec2(500, 500)
    assert many.walls.count_near(center, WALL_COST_RADIUS) > few.walls.count_near(
        center, WALL_COST_RADIUS
    )
