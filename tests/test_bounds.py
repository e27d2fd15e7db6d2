"""Unit tests for the First Bound predicate (Equation 1), area culling,
and the Information Bound validator (Algorithm 7)."""

from __future__ import annotations

import pytest

from repro.core.action import Action, ActionId
from repro.core.closure import QueueEntry
from repro.core.culling import moving_effect_affects, projected_position, sphere_affects
from repro.core.first_bound import FirstBoundPredicate
from repro.core.info_bound import InformationBound
from repro.errors import ConfigurationError
from repro.world.geometry import Vec2
from tests.reference.info_bound_reference import writer_index_of


class SpatialAction(Action):
    def __init__(self, seq, position, radius=0.0, velocity=None, reads=("x",), writes=("x",), client=0):
        super().__init__(
            ActionId(client, seq),
            reads=frozenset(reads) | frozenset(writes),
            writes=frozenset(writes),
            position=position,
            radius=radius,
            velocity=velocity,
        )

    def compute(self, store):
        return {}


# ---------------------------------------------------------------------------
# FirstBoundPredicate / Equation (1)
# ---------------------------------------------------------------------------
def predicate(**kwargs):
    defaults = dict(max_speed=10.0, rtt_ms=200.0, omega=0.5)
    defaults.update(kwargs)
    return FirstBoundPredicate(**defaults)


def test_derived_quantities():
    p = predicate()
    assert p.horizon_ms == pytest.approx(300.0)
    assert p.push_interval_ms == pytest.approx(100.0)
    # 2 * 10 u/s * 0.3 s = 6 units
    assert p.reach == pytest.approx(6.0)


def test_omega_bounds_validated():
    for omega in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ConfigurationError):
            predicate(omega=omega)


def test_equation1_inside_and_outside():
    p = predicate()
    action = SpatialAction(0, Vec2(0, 0), radius=4.0)
    # bound = reach(6) + r_C(5) + r_A(4) = 15
    assert p.affects(action, Vec2(15, 0), client_radius=5.0)
    assert not p.affects(action, Vec2(15.1, 0), client_radius=5.0)


def test_missing_positions_are_conservative():
    p = predicate()
    spatial = SpatialAction(0, Vec2(0, 0))
    non_spatial = SpatialAction(1, None)
    assert p.affects(non_spatial, Vec2(1000, 1000), client_radius=0.0)
    assert p.affects(spatial, None, client_radius=0.0)


def test_velocity_culling_uses_projection():
    p = predicate(use_velocity_culling=True)
    # Action at origin moving away from the client at 100 u/s.
    action = SpatialAction(
        0, Vec2(0, 0), radius=50.0, velocity=Vec2(-100.0, 0.0)
    )
    client_pos = Vec2(10.0, 0.0)
    # Plain sphere test would accept (distance 10 <= 6 + 0 + 50).
    plain = predicate()
    assert plain.affects(action, client_pos, client_radius=0.0)
    # With culling: projected position after 0.5s is (-50, 0), distance
    # 60 > reach 6 -> not affecting.
    assert not p.affects(
        action,
        client_pos,
        client_radius=0.0,
        action_time=500.0,
        client_position_time=0.0,
    )


def test_velocity_culling_catches_approaching_effect():
    p = predicate(use_velocity_culling=True)
    action = SpatialAction(0, Vec2(100, 0), velocity=Vec2(-100.0, 0.0))
    # After 1s the effect is at the origin, right on the client.
    assert p.affects(
        action,
        Vec2(0, 0),
        client_radius=0.0,
        action_time=1000.0,
        client_position_time=0.0,
    )


def test_culling_helpers_directly():
    assert projected_position(Vec2(0, 0), Vec2(10, 0), 1000.0, 0.0) == Vec2(10.0, 0.0)
    assert sphere_affects(Vec2(0, 0), 5.0, Vec2(10, 0), reach=4.0, client_radius=1.0)
    assert not sphere_affects(Vec2(0, 0), 5.0, Vec2(11, 0), reach=4.0, client_radius=0.9)
    assert moving_effect_affects(
        Vec2(0, 0), Vec2(10, 0), 1000.0, Vec2(12, 0), 0.0, reach=2.0, client_radius=0.1
    )


# ---------------------------------------------------------------------------
# InformationBound / Algorithm 7
# ---------------------------------------------------------------------------
def make_entries(*specs):
    """specs: (position, reads, writes) tuples, pre-validated=None."""
    entries = []
    for index, (position, reads, writes) in enumerate(specs):
        entries.append(
            QueueEntry(
                index,
                SpatialAction(index, position, reads=reads, writes=writes),
                arrived_at=float(index),
            )
        )
    return entries


def test_threshold_must_be_nonnegative():
    with pytest.raises(ConfigurationError):
        InformationBound(-1.0)


def test_independent_actions_all_admitted():
    bound = InformationBound(10.0)
    entries = make_entries(
        (Vec2(0, 0), ("a",), ("a",)),
        (Vec2(100, 0), ("b",), ("b",)),
    )
    dropped = bound.validate(entries, 0, writer_index=writer_index_of(entries))
    assert dropped == []
    assert all(e.valid for e in entries)
    assert bound.stats.validated == 2
    assert bound.stats.drop_percent == 0.0


def test_nearby_conflict_admitted_far_conflict_dropped():
    bound = InformationBound(threshold=10.0)
    entries = make_entries(
        (Vec2(0, 0), ("x",), ("x",)),
        (Vec2(5, 0), ("x",), ("x",)),   # conflicts at distance 5 <= 10
        (Vec2(50, 0), ("x",), ("x",)),  # conflicts at distance 45/50 > 10
    )
    dropped = bound.validate(entries, 0, writer_index=writer_index_of(entries))
    assert [entries[i].valid for i in range(3)] == [True, True, False]
    assert dropped == [2]
    assert bound.stats.dropped == 1


def test_dropped_entries_break_chains_for_successors():
    # a0 far away; a1 conflicts with a0 and is dropped; a2 conflicts with
    # the same object but a1's drop removed the long link... a0 still
    # matters for a2 directly, so a2 is dropped too unless independent.
    bound = InformationBound(threshold=10.0)
    entries = make_entries(
        (Vec2(0, 0), ("x",), ("x",)),
        (Vec2(50, 0), ("x",), ("x",)),   # dropped (far from a0)
        (Vec2(52, 0), ("x",), ("x",)),   # conflicts with a0 (far) but NOT via a1
    )
    bound.validate(entries, 0, writer_index=writer_index_of(entries))
    assert entries[1].valid is False
    # a2 still directly conflicts with a0 at distance 52 -> dropped.
    assert entries[2].valid is False


def test_chain_breaking_saves_downstream_when_local():
    bound = InformationBound(threshold=10.0)
    entries = make_entries(
        (Vec2(0, 0), ("x",), ("x",)),
        (Vec2(50, 0), ("x", "y"), ("y",)),  # links x-chain to y at 50 -> dropped
        (Vec2(52, 0), ("y",), ("y",)),      # reads y; only writer (a1) was dropped
    )
    bound.validate(entries, 0, writer_index=writer_index_of(entries))
    assert entries[1].valid is False
    assert entries[2].valid is True  # chain was cut by dropping a1


def test_sequential_decisions_within_tick():
    """Dining-philosophers flavour: ring of pairwise conflicts; dropping
    a few grabs partitions the ring into short arcs."""
    bound = InformationBound(threshold=12.0)
    # Philosophers at 10-unit spacing on a line, each sharing a fork
    # with the neighbour (adjacent conflicts only).
    specs = []
    for i in range(8):
        reads = (f"fork{i}", f"fork{i+1}")
        specs.append((Vec2(10.0 * i, 0), reads, reads))
    entries = make_entries(*specs)
    bound.validate(entries, 0, writer_index=writer_index_of(entries))
    # Adjacent conflicts are 10 <= 12 apart; transitive members are 20+
    # away, so every second action gets dropped, cutting the chain.
    verdicts = [e.valid for e in entries]
    assert verdicts[0] is True
    assert False in verdicts  # some drops occurred
    assert verdicts.count(True) >= 4  # but the majority commits


def test_actions_without_position_never_dropped():
    bound = InformationBound(threshold=1.0)
    entries = make_entries(
        (Vec2(0, 0), ("x",), ("x",)),
        (None, ("x",), ("x",)),
    )
    bound.validate(entries, 0, writer_index=writer_index_of(entries))
    assert entries[1].valid is True


def test_validate_only_new_suffix():
    bound = InformationBound(threshold=10.0)
    entries = make_entries(
        (Vec2(0, 0), ("x",), ("x",)),
        (Vec2(50, 0), ("x",), ("x",)),
    )
    bound.validate(entries, 0, writer_index=writer_index_of(entries))
    more = make_entries((Vec2(0, 0), ("z",), ("z",)))
    entries.append(more[0])
    dropped = bound.validate(entries, 2, writer_index=writer_index_of(entries))
    assert dropped == []
    assert bound.stats.validated == 3


def test_chain_length_stats_recorded():
    bound = InformationBound(threshold=100.0)
    entries = make_entries(
        (Vec2(0, 0), ("x",), ("x",)),
        (Vec2(5, 0), ("x",), ("x",)),
        (Vec2(9, 0), ("x",), ("x",)),
    )
    bound.validate(entries, 0, writer_index=writer_index_of(entries))
    assert bound.stats.chain_lengths == [0, 1, 2]


# ---------------------------------------------------------------------------
# InformationBound — delay policy (Section III-E's alternative)
# ---------------------------------------------------------------------------
def test_delay_policy_defers_instead_of_dropping():
    bound = InformationBound(threshold=10.0, policy="delay", max_delay_ticks=2)
    entries = make_entries(
        (Vec2(0, 0), ("x",), ("x",)),
        (Vec2(50, 0), ("x",), ("x",)),  # chain-breaker
    )
    dropped = bound.validate(entries, 0, writer_index=writer_index_of(entries))
    assert dropped == []
    assert entries[0].valid is True
    assert entries[1].valid is None  # deferred, not dropped
    assert entries[1].deferrals == 1
    assert bound.stats.deferred == 1


def test_delay_policy_drops_after_budget():
    bound = InformationBound(threshold=10.0, policy="delay", max_delay_ticks=2)
    entries = make_entries(
        (Vec2(0, 0), ("x",), ("x",)),
        (Vec2(50, 0), ("x",), ("x",)),
    )
    bound.validate(entries, 0, writer_index=writer_index_of(entries))
    bound.validate(entries, 1, writer_index=writer_index_of(entries))  # second deferral
    dropped = bound.validate(entries, 1, writer_index=writer_index_of(entries))  # budget exhausted
    assert dropped == [1]
    assert entries[1].valid is False
    assert bound.stats.dropped == 1


def test_delay_policy_rescues_when_conflict_commits():
    bound = InformationBound(threshold=10.0, policy="delay", max_delay_ticks=3)
    entries = make_entries(
        (Vec2(0, 0), ("x",), ("x",)),
        (Vec2(50, 0), ("x",), ("x",)),
    )
    bound.validate(entries, 0, writer_index=writer_index_of(entries))
    assert entries[1].valid is None
    # The conflicting predecessor commits and leaves the live queue.
    survivor = entries[1]
    dropped = bound.validate([survivor], 0, writer_index=writer_index_of([survivor]))
    assert dropped == []
    assert survivor.valid is True
    assert bound.stats.rescued == 1


def test_delay_policy_holds_back_later_entries():
    bound = InformationBound(threshold=10.0, policy="delay", max_delay_ticks=2)
    entries = make_entries(
        (Vec2(0, 0), ("x",), ("x",)),
        (Vec2(50, 0), ("x",), ("x",)),   # deferred
        (Vec2(1, 0), ("z",), ("z",)),    # independent, but behind the hold
    )
    bound.validate(entries, 0, writer_index=writer_index_of(entries))
    assert entries[2].valid is None  # contiguity: not validated yet


def test_delay_policy_validation_resumes_next_round():
    bound = InformationBound(threshold=10.0, policy="delay", max_delay_ticks=1)
    entries = make_entries(
        (Vec2(0, 0), ("x",), ("x",)),
        (Vec2(50, 0), ("x",), ("x",)),
        (Vec2(1, 0), ("z",), ("z",)),
    )
    bound.validate(entries, 0, writer_index=writer_index_of(entries))      # defers entry 1
    dropped = bound.validate(entries, 1, writer_index=writer_index_of(entries))  # budget over: drop 1, admit 2
    assert dropped == [1]
    assert entries[2].valid is True


def test_invalid_policy_rejected():
    import pytest as _pytest

    with _pytest.raises(ConfigurationError):
        InformationBound(1.0, policy="defer-forever")
    with _pytest.raises(ConfigurationError):
        InformationBound(1.0, policy="delay", max_delay_ticks=-1)
