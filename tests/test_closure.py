"""Unit tests for Algorithm 6 (transitive closure) and the known-values
tracker."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.action import Action, ActionId, ActionResult
from repro.core.closure import KnownValuesTracker, QueueEntry, transitive_closure
from repro.core.indexes import WriterIndex
from repro.errors import ProtocolError


class SetsAction(Action):
    def __init__(self, action_id, reads, writes):
        super().__init__(action_id, reads=frozenset(reads) | frozenset(writes), writes=frozenset(writes))

    def compute(self, store):
        return {}


def entry(pos, reads, writes, client=0, valid=True, sent=()):
    queue_entry = QueueEntry(
        pos,
        SetsAction(ActionId(client, pos), reads, writes),
        arrived_at=float(pos),
        valid=valid,
    )
    queue_entry.sent |= set(sent)
    return queue_entry


C = 7  # the requesting client


def closure(entries, candidate_index):
    """Algorithm 6 for client C over a queue starting at position 0."""
    writer_index = WriterIndex()
    for queue_entry in entries:
        writer_index.note_enqueued(queue_entry.pos, queue_entry.action.writes)
    return transitive_closure(
        entries, candidate_index, C, writer_index=writer_index
    )


def test_closure_includes_candidate_only_when_independent():
    entries = [entry(0, [], ["a"]), entry(1, [], ["b"])]
    chain, seed = closure(entries, 1)
    assert chain == [1]
    assert seed == frozenset({"b"})


def test_closure_walks_transitive_dependencies_in_order():
    entries = [
        entry(0, [], ["x"]),
        entry(1, ["x"], ["y"]),
        entry(2, ["y"], ["z"]),
    ]
    chain, seed = closure(entries, 2)
    assert chain == [0, 1, 2]
    assert seed == frozenset({"x", "y", "z"})
    # every chain member is now marked sent to C
    assert all(C in entries[i].sent for i in chain)


def test_closure_skips_dropped_entries():
    entries = [
        entry(0, [], ["x"], valid=False),
        entry(1, ["x"], ["y"]),
    ]
    chain, seed = closure(entries, 1)
    assert chain == [1]
    assert "x" in seed  # still needs a committed value for x


def test_closure_shrinks_seed_for_already_sent_entries():
    entries = [
        entry(0, [], ["x"], sent=[C]),
        entry(1, ["x"], ["y"]),
    ]
    chain, seed = closure(entries, 1)
    assert chain == [1]
    # C already has (or will compute) x from entry 0: no seeding needed.
    assert "x" not in seed


def test_closure_sent_shrink_prunes_older_writers():
    entries = [
        entry(0, [], ["x"]),          # older writer of x
        entry(1, [], ["x"], sent=[C]),  # newer writer, already at C
        entry(2, ["x"], ["y"]),
    ]
    chain, seed = closure(entries, 2)
    # x was removed from S by entry 1, so entry 0 must not join.
    assert chain == [2]
    assert "x" not in seed


def test_closure_candidate_already_sent_raises():
    entries = [entry(0, [], ["a"], sent=[C])]
    with pytest.raises(ProtocolError):
        closure(entries, 0)


def test_closure_dropped_candidate_raises():
    entries = [entry(0, [], ["a"], valid=False)]
    with pytest.raises(ProtocolError):
        closure(entries, 0)


def test_closure_read_modify_write_keeps_base_value_in_seed():
    # Chain member increments x (reads and writes it); the replica needs
    # x's committed base value to replay it.
    entries = [
        entry(0, ["x"], ["x"]),
        entry(1, ["x"], ["y"]),
    ]
    chain, seed = closure(entries, 1)
    assert chain == [0, 1]
    assert "x" in seed


# ---------------------------------------------------------------------------
# QueueEntry completion bookkeeping
# ---------------------------------------------------------------------------
def test_completion_recorded_and_ready():
    queue_entry = entry(0, [], ["a"])
    assert not queue_entry.committed_ready
    result = ActionResult.of({"a": {"v": 1}})
    queue_entry.record_completion(result, reporter=3)
    assert queue_entry.committed_ready
    assert queue_entry.reporters == {3}


def test_dropped_entry_is_ready_without_completion():
    queue_entry = entry(0, [], ["a"], valid=False)
    assert queue_entry.committed_ready


def test_conflicting_completions_raise():
    queue_entry = entry(0, [], ["a"])
    queue_entry.record_completion(ActionResult.of({"a": {"v": 1}}), reporter=1)
    queue_entry.record_completion(ActionResult.of({"a": {"v": 1}}), reporter=2)
    assert queue_entry.reporters == {1, 2}
    with pytest.raises(ProtocolError):
        queue_entry.record_completion(ActionResult.of({"a": {"v": 9}}), reporter=3)


# ---------------------------------------------------------------------------
# KnownValuesTracker
# ---------------------------------------------------------------------------
def test_tracker_seeds_initial_objects_once():
    tracker = KnownValuesTracker()
    assert tracker.needs(C, "a")
    tracker.record_blind_write(C, frozenset({"a"}))
    assert not tracker.needs(C, "a")


def test_tracker_requires_reseed_after_unseen_commit():
    tracker = KnownValuesTracker()
    tracker.record_blind_write(C, frozenset({"a"}))
    tracker.record_commit(5, frozenset({"a"}), recipients=set())  # C not in sent
    assert tracker.needs(C, "a")


def test_tracker_no_reseed_when_client_received_the_writer():
    tracker = KnownValuesTracker()
    tracker.record_blind_write(C, frozenset({"a"}))
    tracker.record_commit(5, frozenset({"a"}), recipients={C})
    assert not tracker.needs(C, "a")


def test_tracker_filter_seed():
    tracker = KnownValuesTracker()
    tracker.record_blind_write(C, frozenset({"a"}))
    assert tracker.filter_seed(C, frozenset({"a", "b"})) == frozenset({"b"})


def test_tracker_forget_client():
    tracker = KnownValuesTracker()
    tracker.record_blind_write(C, frozenset({"a"}))
    tracker.forget_client(C)
    assert tracker.needs(C, "a")


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.booleans()),
        max_size=20,
    )
)
def test_tracker_needs_iff_version_behind(commits):
    """Model check: needs() is true iff the client's held commit position
    differs from the object's latest committed position."""
    tracker = KnownValuesTracker()
    held = None
    latest = -1
    oid = "x"
    tracker.record_blind_write(C, frozenset({oid}))
    held = -1
    for pos, (offset, to_client) in enumerate(commits):
        commit_pos = pos + offset
        tracker.record_commit(
            commit_pos, frozenset({oid}), recipients={C} if to_client else set()
        )
        latest = commit_pos
        if to_client:
            held = commit_pos
    assert tracker.needs(C, oid) == (held != latest)
