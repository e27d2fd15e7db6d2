"""Property-based tests of the core structural invariants.

* LockTable: mutual exclusion and reader/writer exclusion hold under
  arbitrary acquire/release interleavings.
* InformationBound: the bound it promises — no admitted action has a
  conflicting (still-valid) predecessor farther than the threshold.
* API surface: every re-exported name resolves.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.action import Action, ActionId
from repro.core.closure import QueueEntry
from repro.core.info_bound import InformationBound
from repro.state.locks import LockTable
from repro.world.geometry import Vec2
from tests.reference.info_bound_reference import writer_index_of


# ---------------------------------------------------------------------------
# LockTable
# ---------------------------------------------------------------------------
lock_ops = st.lists(
    st.tuples(
        st.sampled_from(["acquire", "release"]),
        st.integers(min_value=0, max_value=9),     # request id
        st.sets(st.sampled_from("abcd"), max_size=2),  # shared
        st.sets(st.sampled_from("abcd"), max_size=2),  # exclusive
    ),
    max_size=40,
)


@given(ops=lock_ops)
def test_lock_table_exclusion_invariants(ops):
    table = LockTable()
    live = set()
    for op, request_id, shared, exclusive in ops:
        if op == "acquire" and request_id not in live:
            table.acquire(
                request_id,
                shared=frozenset(shared),
                exclusive=frozenset(exclusive),
                on_granted=lambda: None,
            )
            live.add(request_id)
        elif op == "release" and request_id in live and table.holds(request_id):
            table.release(request_id)
            live.discard(request_id)
        # Invariants after every step:
        for oid in "abcd":
            writer = table.writer_of(oid)
            readers = table.reader_count(oid)
            # An exclusively held object has no concurrent readers.
            if writer is not None:
                assert readers == 0
            assert readers >= 0


@given(ops=lock_ops)
def test_lock_table_eventually_grants_everything(ops):
    """Releasing all held locks must leave no grantable waiter stuck."""
    table = LockTable()
    live = []
    for op, request_id, shared, exclusive in ops:
        if op == "acquire" and request_id not in live:
            table.acquire(
                request_id,
                shared=frozenset(shared),
                exclusive=frozenset(exclusive),
                on_granted=lambda: None,
            )
            live.append(request_id)
    # Drain: release in acquisition order whatever currently holds.
    for request_id in list(live):
        if table.holds(request_id):
            table.release(request_id)
    # Anything still waiting must have been granted by the rescans and
    # then left held; release those too, until nothing waits.
    for _ in range(len(live)):
        if table.waiting_count == 0:
            break
        for request_id in list(live):
            if table.holds(request_id):
                table.release(request_id)
    assert table.waiting_count == 0


# ---------------------------------------------------------------------------
# InformationBound
# ---------------------------------------------------------------------------
class _SpatialAction(Action):
    def __init__(self, seq, position, reads, writes):
        super().__init__(
            ActionId(0, seq),
            reads=frozenset(reads) | frozenset(writes),
            writes=frozenset(writes),
            position=position,
        )

    def compute(self, store):
        return {}


entry_specs = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=300),   # x
        st.floats(min_value=0, max_value=300),   # y
        st.sets(st.sampled_from("pqrs"), min_size=1, max_size=2),  # writes
        st.sets(st.sampled_from("pqrs"), max_size=2),              # extra reads
    ),
    min_size=1,
    max_size=25,
)


@given(specs=entry_specs, threshold=st.floats(min_value=5, max_value=400))
def test_admitted_actions_respect_the_information_bound(specs, threshold):
    """The model's contract: after validation, no admitted action has a
    conflicting still-valid predecessor beyond the threshold."""
    entries = []
    for seq, (x, y, writes, reads) in enumerate(specs):
        entries.append(
            QueueEntry(
                seq,
                _SpatialAction(seq, Vec2(x, y), reads, writes),
                arrived_at=float(seq),
            )
        )
    bound = InformationBound(threshold)
    bound.validate(entries, 0, writer_index=writer_index_of(entries))
    for index, entry in enumerate(entries):
        if not entry.valid:
            continue
        accumulated = set(entry.action.reads)
        for j in range(index - 1, -1, -1):
            earlier = entries[j]
            if not earlier.valid:
                continue
            if not (earlier.action.writes & accumulated):
                continue
            distance = entry.action.position.distance_to(
                earlier.action.position
            )
            assert distance <= threshold, (
                f"admitted action {index} conflicts with {j} at {distance}"
            )
            accumulated |= earlier.action.reads


@given(specs=entry_specs)
def test_zero_threshold_only_drops_conflicting_actions(specs):
    """Non-conflicting actions are never dropped, whatever the bound."""
    entries = []
    for seq, (x, y, writes, reads) in enumerate(specs):
        entries.append(
            QueueEntry(
                seq,
                _SpatialAction(seq, Vec2(x, y), reads, writes),
                arrived_at=float(seq),
            )
        )
    bound = InformationBound(0.0)
    bound.validate(entries, 0, writer_index=writer_index_of(entries))
    for index, entry in enumerate(entries):
        if entry.valid:
            continue
        # A dropped action must actually conflict with some valid
        # predecessor (the drop was not gratuitous).
        accumulated = set(entry.action.reads)
        conflicting = any(
            entries[j].valid and (entries[j].action.writes & accumulated)
            for j in range(index - 1, -1, -1)
        )
        assert conflicting


# ---------------------------------------------------------------------------
# API surface
# ---------------------------------------------------------------------------
def test_all_reexports_resolve():
    import repro
    import repro.baselines
    import repro.metrics
    import repro.state
    import repro.world

    for module in (repro, repro.baselines, repro.metrics, repro.state,
                   repro.world):
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{module.__name__}.{name}"
