"""Unit + property tests for read/write-set algebra and the pending queue."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.action import ABORT_RESULT, Action, ActionId, ActionResult
from repro.core.pending import PendingQueue
from tests.reference.rwsets_reference import (
    backward_chain,
    conflicts,
    read_set_union,
    write_set_union,
)
from repro.errors import ProtocolError


class SetsAction(Action):
    """Action defined purely by its declared sets (no behaviour)."""

    def __init__(self, action_id, reads, writes):
        super().__init__(
            action_id, reads=frozenset(reads), writes=frozenset(writes)
        )

    def compute(self, store):
        return {}


def action(seq, reads, writes, client=0):
    return SetsAction(ActionId(client, seq), set(reads) | set(writes), writes)


# ---------------------------------------------------------------------------
# rwsets
# ---------------------------------------------------------------------------
def test_conflicts_is_ws_intersect_rs():
    a = action(0, [], ["x"])
    b = action(1, ["x"], [])
    c = action(2, ["y"], [])
    assert conflicts(a, b)
    assert not conflicts(a, c)


def test_conflicts_covers_write_write():
    a = action(0, [], ["x"])
    b = action(1, [], ["x"])  # RS >= WS, so b reads x too
    assert conflicts(a, b)


def test_unions():
    actions = [action(0, ["a"], ["x"]), action(1, ["b"], ["y"])]
    assert write_set_union(actions) == frozenset({"x", "y"})
    assert read_set_union(actions) == frozenset({"a", "b", "x", "y"})
    assert write_set_union([]) == frozenset()


def test_backward_chain_simple_dependency():
    queue = [
        action(0, [], ["x"]),
        action(1, [], ["z"]),  # irrelevant
        action(2, ["x"], ["y"]),
    ]
    chain, accumulated = backward_chain(queue, frozenset({"y"}))
    assert chain == [0, 2]  # a2 writes y; a0 writes x read by a2
    assert "x" in accumulated and "y" in accumulated
    assert "z" not in accumulated


def test_backward_chain_empty_seed():
    queue = [action(0, [], ["x"])]
    chain, accumulated = backward_chain(queue, frozenset())
    assert chain == []
    assert accumulated == frozenset()


def test_backward_chain_transitivity_order():
    # a0 -> a1 -> a2, seed reads only what a2 writes.
    queue = [
        action(0, [], ["a"]),
        action(1, ["a"], ["b"]),
        action(2, ["b"], ["c"]),
    ]
    chain, _ = backward_chain(queue, frozenset({"c"}))
    assert chain == [0, 1, 2]


def test_backward_chain_skips_covered_independent():
    queue = [
        action(0, [], ["p"]),
        action(1, [], ["q"]),
    ]
    chain, _ = backward_chain(queue, frozenset({"q"}))
    assert chain == [1]


def test_empty_set_action_is_legal_and_conflict_free():
    empty = action(0, [], [])
    writer = action(1, [], ["x"])
    assert empty.reads == frozenset() and empty.writes == frozenset()
    assert not conflicts(empty, writer)
    assert not conflicts(writer, empty)
    assert read_set_union([empty]) == frozenset()
    assert write_set_union([empty]) == frozenset()


def test_rs_must_contain_ws_at_construction():
    # RS ⊇ WS is enforced when the action is built, not when it runs.
    with pytest.raises(ProtocolError):
        SetsAction(ActionId(0, 0), reads={"x"}, writes={"x", "y"})


def test_conflicts_is_asymmetric():
    # conflicts(a, b) asks whether a's writes touch b's reads; a pure
    # reader conflicts with nothing downstream of it.
    writer = action(0, [], ["x"])
    reader = SetsAction(ActionId(0, 1), reads={"x"}, writes=set())
    assert conflicts(writer, reader)
    assert not conflicts(reader, writer)


def test_backward_chain_never_includes_empty_ws_actions():
    # Chains are built from writers; a pure reader can never join one,
    # even when its read set overlaps the seed.
    queue = [
        SetsAction(ActionId(0, 0), reads={"x", "y"}, writes=set()),
        action(1, [], ["x"]),
    ]
    chain, accumulated = backward_chain(queue, frozenset({"x"}))
    assert chain == [1]
    assert "x" in accumulated
    assert "y" not in accumulated


@given(
    data=st.lists(
        st.tuples(
            st.sets(st.sampled_from("abcdef"), max_size=3),
            st.sets(st.sampled_from("abcdef"), max_size=2),
        ),
        max_size=12,
    ),
    seed=st.sets(st.sampled_from("abcdef"), max_size=3),
)
def test_backward_chain_is_transitively_closed(data, seed):
    """Invariant: a non-chain action must not write anything read by the
    seed or by a chain member that comes *after* it — otherwise a
    replica replaying the chain would use wrong values for that read."""
    queue = [action(i, reads, writes) for i, (reads, writes) in enumerate(data)]
    chain, accumulated = backward_chain(queue, frozenset(seed))
    chain_set = set(chain)
    assert chain == sorted(chain)  # causal (ascending) order
    for index, entry in enumerate(queue):
        if index in chain_set:
            continue
        needed_after = set(seed)
        for j in chain:
            if j > index:
                needed_after |= queue[j].reads
        assert not (entry.writes & needed_after), (
            f"non-chain action {index} writes {entry.writes & needed_after} "
            f"needed by later chain members"
        )
    assert accumulated >= frozenset(seed)


# ---------------------------------------------------------------------------
# PendingQueue
# ---------------------------------------------------------------------------
def result(**values):
    return ActionResult.of({"o:0": dict(values)}) if values else ABORT_RESULT


def test_push_head_pop_fifo():
    queue = PendingQueue()
    a0 = action(0, [], ["x"])
    a1 = action(1, [], ["y"])
    queue.push(a0, ABORT_RESULT)
    queue.push(a1, ABORT_RESULT)
    assert len(queue) == 2
    assert queue.head()[0] is a0
    popped, _ = queue.pop_head()
    assert popped is a0
    assert queue.head()[0] is a1


def test_head_and_pop_on_empty_raise():
    queue = PendingQueue()
    with pytest.raises(ProtocolError):
        queue.head()
    with pytest.raises(ProtocolError):
        queue.pop_head()


def test_write_set_union_with_multiplicity():
    queue = PendingQueue()
    a0 = action(0, [], ["x", "y"])
    a1 = action(1, [], ["y"])
    queue.push(a0, ABORT_RESULT)
    queue.push(a1, ABORT_RESULT)
    assert queue.write_set() == frozenset({"x", "y"})
    queue.pop_head()  # removes a0
    assert queue.write_set() == frozenset({"y"})  # y still written by a1
    assert queue.writes("y")
    assert not queue.writes("x")


def test_remove_middle_entry():
    queue = PendingQueue()
    actions = [action(i, [], [f"o{i}"]) for i in range(3)]
    for a in actions:
        queue.push(a, ABORT_RESULT)
    removed = queue.remove(ActionId(0, 1))
    assert removed is actions[1]
    assert [a.action_id.seq for a in queue.actions()] == [0, 2]
    assert not queue.writes("o1")


def test_remove_absent_returns_none():
    queue = PendingQueue()
    assert queue.remove(ActionId(0, 99)) is None


def test_contains():
    queue = PendingQueue()
    queue.push(action(4, [], ["x"]), ABORT_RESULT)
    assert queue.contains(ActionId(0, 4))
    assert not queue.contains(ActionId(0, 5))


def test_replace_result():
    queue = PendingQueue()
    queue.push(action(0, [], ["x"]), ABORT_RESULT)
    new = ActionResult.of({"x": {"v": 1}})
    queue.replace_result(0, new)
    assert queue.head()[1] == new


def test_iteration_yields_pairs():
    queue = PendingQueue()
    a = action(0, [], ["x"])
    queue.push(a, ABORT_RESULT)
    assert list(queue) == [(a, ABORT_RESULT)]
    assert bool(queue)


@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("push"), st.sets(st.sampled_from("abc"), min_size=1, max_size=2)),
            st.just(("pop", None)),
        ),
        max_size=30,
    )
)
def test_write_set_matches_brute_force(ops):
    queue = PendingQueue()
    mirror = []
    seq = 0
    for op, writes in ops:
        if op == "push":
            a = action(seq, [], writes)
            seq += 1
            queue.push(a, ABORT_RESULT)
            mirror.append(a)
        elif mirror:
            queue.pop_head()
            mirror.pop(0)
    expected = frozenset().union(*(a.writes for a in mirror)) if mirror else frozenset()
    assert queue.write_set() == expected
