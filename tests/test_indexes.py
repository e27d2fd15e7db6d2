"""Unit tests for the output-sensitive distribution indexes:
:class:`WriterIndex` (inverted Algorithm 6 write index, GC'd with the
commit frontier) and :class:`ClientSpatialIndex` (committed avatar
positions for push-cycle candidate queries)."""

from __future__ import annotations

import random

from repro.core.action import Action, ActionId, ActionResult
from repro.core.first_bound import FirstBoundPredicate
from repro.core.indexes import ClientSpatialIndex, WriterIndex
from repro.core.closure import QueueEntry, ships_as_value, transitive_closure
from repro.world.geometry import Vec2
from tests.reference.distribution_reference import reference_transitive_closure


# ----------------------------------------------------------------------
# WriterIndex
# ----------------------------------------------------------------------
def test_writer_index_tracks_ascending_positions():
    index = WriterIndex()
    index.note_enqueued(0, {"a", "b"})
    index.note_enqueued(1, {"b"})
    index.note_enqueued(2, {"a"})
    assert index.live_positions("a") == [0, 2]
    assert index.live_positions("b") == [0, 1]
    assert index.latest_writer_before(("a",), 2) == 0
    assert index.latest_writer_before(("a",), 3) == 2
    assert index.latest_writer_before(("b",), 1) == 0
    assert index.latest_writer_before(("b",), 0) == -1
    assert index.latest_writer_before(("missing",), 10) == -1


def test_writer_index_gc_across_commits():
    """Advancing the commit frontier prunes exactly the committed
    prefix of each written object's position list."""
    index = WriterIndex()
    for pos in range(6):
        index.note_enqueued(pos, {"x"} if pos % 2 == 0 else {"x", "y"})
    # Commit positions 0 and 1 (frontier -> base_pos 2).
    index.note_dequeued({"x"}, 1)
    index.note_dequeued({"x", "y"}, 2)
    assert index.live_positions("x") == [2, 3, 4, 5]
    assert index.live_positions("y") == [3, 5]
    assert index.latest_writer_before(("x",), 10) == 5
    assert index.latest_writer_before(("x",), 2) == -1  # committed writers gone
    # Commit everything: index drains to empty.
    for pos in range(2, 6):
        index.note_dequeued({"x", "y"}, pos + 1)
    assert len(index) == 0
    assert index.latest_writer_before(("x",), 100) == -1
    assert index.latest_writer_before(("y",), 100) == -1


def test_writer_index_gc_compacts_long_prefixes():
    index = WriterIndex()
    total = 500
    for pos in range(total):
        index.note_enqueued(pos, {"hot"})
    for pos in range(total - 1):
        index.note_dequeued({"hot"}, pos + 1)
    assert index.live_positions("hot") == [total - 1]
    # The internal list must not retain the full committed prefix.
    assert len(index._writers["hot"]) < total


def test_writer_index_gc_on_dropped_entries():
    """Dropped (valid=False) entries leave the queue without committing;
    their writer positions must still be pruned."""
    index = WriterIndex()
    index.note_enqueued(0, {"a"})
    index.note_enqueued(1, {"a"})
    index.note_dequeued({"a"}, 1)  # pos 0 dropped, frontier at 1
    assert index.live_positions("a") == [1]


# ----------------------------------------------------------------------
# WriterIndex-driven closure == brute-force closure (randomized)
# ----------------------------------------------------------------------
class _SetsAction(Action):
    def __init__(self, action_id, reads, writes):
        super().__init__(
            action_id,
            reads=frozenset(reads) | frozenset(writes),
            writes=frozenset(writes),
        )

    def compute(self, store):
        return {}


def _random_queue(rng, num_entries, num_objects, base_pos=0):
    entries = []
    index = WriterIndex()
    for offset in range(num_entries):
        pos = base_pos + offset
        owner = rng.randrange(num_objects)
        reads = {f"o:{rng.randrange(num_objects)}" for _ in range(rng.randrange(3))}
        action = _SetsAction(ActionId(owner, pos), reads, {f"o:{owner}"})
        entry = QueueEntry(pos, action, arrived_at=float(pos))
        entry.valid = rng.random() > 0.1  # ~10% dropped entries
        entries.append(entry)
        index.note_enqueued(pos, action.writes)
    return entries, index


def test_indexed_closure_matches_brute_force_on_random_queues():
    """Random queues, sent marks, completions, spans and high-water
    marks: the late-entry rule (value, code or deferral) decides alike
    through the writer index and by scanning."""
    rng = random.Random(42)
    outcomes = set()
    for trial in range(60):
        base_pos = rng.randrange(0, 50)
        entries, index = _random_queue(rng, 60, 12, base_pos=base_pos)
        # Random pre-existing sent state for a few clients.
        for entry in entries:
            for client in range(3):
                if rng.random() < 0.2:
                    entry.sent.add(client)
            if rng.random() < 0.4:
                entry.completion = ActionResult.of({})
            if rng.random() < 0.05:
                entry.gsn = entry.pos
        candidate_index = rng.randrange(len(entries))
        if entries[candidate_index].valid is False:
            continue
        client_id = rng.randrange(3)
        if client_id in entries[candidate_index].sent:
            continue
        import copy

        high_water = max(
            (e.pos for e in entries if client_id in e.sent), default=-1
        )
        brute_entries = copy.deepcopy(entries)
        brute_chain, brute_seed = reference_transitive_closure(
            brute_entries, candidate_index, client_id, high_water
        )
        indexed_chain, indexed_seed = transitive_closure(
            entries, candidate_index, client_id,
            writer_index=index, base_pos=base_pos, high_water=high_water,
        )
        late = [
            ships_as_value(entries[i], client_id, high_water)
            for i in indexed_chain or ()
            if entries[i].pos < high_water
        ]
        outcomes.update(
            ["deferred"] if indexed_chain is None else ["value" if v else "code" for v in late]
        )
        assert indexed_chain == brute_chain, f"trial {trial}"
        assert indexed_seed == brute_seed, f"trial {trial}"
        assert [sorted(e.sent) for e in entries] == [
            sorted(e.sent) for e in brute_entries
        ], f"trial {trial}"
    assert outcomes == {"deferred", "value", "code"}


# ----------------------------------------------------------------------
# ClientSpatialIndex
# ----------------------------------------------------------------------
def test_spatial_client_index_candidates_within_radius():
    index = ClientSpatialIndex()
    index.note_radius(5.0)
    index.update(1, Vec2(0.0, 0.0))
    index.update(2, Vec2(30.0, 0.0))
    index.update(3, Vec2(200.0, 200.0))
    found = set(index.candidates(Vec2(10.0, 0.0), 25.0))
    assert found == {1, 2}
    assert index.max_client_radius == 5.0


def test_spatial_client_index_positionless_clients_always_candidates():
    index = ClientSpatialIndex()
    index.update(1, Vec2(0.0, 0.0))
    index.update(9, None)  # no committed avatar position
    found = set(index.candidates(Vec2(500.0, 500.0), 10.0))
    assert found == {9}
    assert index.positionless_count == 1
    # Gaining a position moves it out of the conservative set.
    index.update(9, Vec2(500.0, 500.0))
    assert index.positionless_count == 0
    assert set(index.candidates(Vec2(500.0, 500.0), 10.0)) == {9}


def test_spatial_client_index_update_and_remove():
    index = ClientSpatialIndex()
    index.update(1, Vec2(0.0, 0.0))
    assert set(index.candidates(Vec2(0.0, 0.0), 1.0)) == {1}
    index.update(1, Vec2(100.0, 100.0))  # moved by a commit
    assert set(index.candidates(Vec2(0.0, 0.0), 1.0)) == set()
    assert set(index.candidates(Vec2(100.0, 100.0), 1.0)) == {1}
    index.remove(1)
    assert set(index.candidates(Vec2(100.0, 100.0), 1.0)) == set()
    assert len(index) == 0


def test_spatial_client_index_boundary_is_conservative():
    """A client exactly on the Equation (1) boundary must be a
    candidate — the query inflates the radius so rounding can only ever
    add candidates, never lose them."""
    index = ClientSpatialIndex()
    index.update(1, Vec2(30.0, 40.0))  # distance 50 exactly
    assert set(index.candidates(Vec2(0.0, 0.0), 50.0)) == {1}


def test_is_candidate_answers_what_the_query_answers():
    """``is_candidate`` is the radius query asked about one client: the
    server re-nominates a stale client's window with it, and must get
    exactly the clients ``candidates`` would have returned — boundary
    slack, moved clients and position-less clients included."""
    rng = random.Random(11)
    index = ClientSpatialIndex()
    for client_id in range(60):
        index.update(client_id, Vec2(rng.uniform(0, 200), rng.uniform(0, 200)))
    index.update(60, None)
    index.update(61, Vec2(30.0, 40.0))  # exactly 50 from the origin
    checked = 0
    for round_ in range(40):
        if round_ == 20:
            for client_id in range(0, 60, 3):  # commits move a third of them
                index.update(client_id, Vec2(rng.uniform(0, 200), rng.uniform(0, 200)))
            index.update(5, None)
        center = Vec2(0.0, 0.0) if round_ % 10 == 0 else Vec2(rng.uniform(0, 200), rng.uniform(0, 200))
        radius = 50.0 if round_ % 10 == 0 else rng.uniform(1, 80)
        found = set(index.candidates(center, radius))
        for client_id in range(62):
            assert index.is_candidate(client_id, center, radius) == (client_id in found)
            checked += client_id in found
    assert checked > 300
    assert index.is_candidate(60, Vec2(0.0, 0.0), 0.0)  # position-less: always
    assert index.is_candidate(61, Vec2(0.0, 0.0), 50.0)


class _PlacedAction(Action):
    def __init__(self, seq, position, radius):
        super().__init__(
            ActionId(0, seq), reads=frozenset(), writes=frozenset(),
            position=position, radius=radius,
        )

    def compute(self, store):
        return {}


def test_is_candidate_answers_what_the_query_answers_at_the_widened_radius():
    """The server nominates (``candidates``) and re-nominates
    (``is_candidate``) at ``FirstBoundPredicate.index_radius`` —
    Equation (1)'s radius widened by the drift margin 2·reach — and the
    two must agree there too: for every action, every client, and a
    client exactly on the widened boundary."""
    predicate = FirstBoundPredicate(max_speed=10.0, rtt_ms=100.0, omega=0.5)
    rng = random.Random(12)
    index = ClientSpatialIndex()
    for client_id in range(80):
        index.note_radius(rng.uniform(0, 10))
        index.update(client_id, Vec2(rng.uniform(0, 300), rng.uniform(0, 300)))
    index.update(80, None)
    # reach 3, so 3·3 + r_A 1 + max r_C: the widened radius of ``edge``.
    edge = _PlacedAction(-1, Vec2(0.0, 0.0), 1.0)
    widened = predicate.index_radius(edge, index.max_client_radius)
    assert widened == 3 * predicate.reach + 1.0 + index.max_client_radius
    index.update(81, Vec2(widened * 0.6, widened * 0.8))  # on the boundary
    actions = [edge] + [
        _PlacedAction(seq, Vec2(rng.uniform(0, 300), rng.uniform(0, 300)), rng.uniform(0, 5))
        for seq in range(60)
    ]
    checked = 0
    for action in actions:
        radius = predicate.index_radius(action, index.max_client_radius)
        found = set(index.candidates(action.position, radius))
        for client_id in range(82):
            assert index.is_candidate(client_id, action.position, radius) == (
                client_id in found
            )
            checked += client_id in found
    assert checked > 100
    assert index.is_candidate(81, edge.position, widened)


def test_latest_writer_before_takes_the_max_over_a_read_set():
    index = WriterIndex()
    index.note_enqueued(3, ["a"])
    index.note_enqueued(5, ["b", "c"])
    index.note_enqueued(8, ["a"])
    assert index.latest_writer_before({"a", "b"}, 9) == 8
    assert index.latest_writer_before({"a", "b"}, 8) == 5
    assert index.latest_writer_before({"a"}, 8) == 3
    assert index.latest_writer_before({"a", "b", "zzz"}, 3) == -1
    assert index.latest_writer_before(set(), 9) == -1
    index.note_dequeued(["a"], 4)  # the frontier passed position 3
    assert index.latest_writer_before({"a"}, 8) == -1
    assert index.latest_writer_before(("c",), 100) == 5
