"""Unit tests for the consistency checker and divergence metrics."""

from __future__ import annotations

from repro.metrics.consistency import (
    ConsistencyChecker,
    check_uniform,
    pairwise_divergence,
)
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore
from repro.state.versioned import VersionedStore


def server_with_history():
    state = VersionedStore([WorldObject("o:0", {"v": 0})])
    state.merge({"o:0": {"v": 1}}, commit_index=0)
    state.merge({"o:0": {"v": 2}}, commit_index=1)
    return state


def replica(value):
    return ObjectStore([WorldObject("o:0", {"v": value})])


def test_exact_match_is_consistent():
    checker = ConsistencyChecker(server_with_history())
    report = checker.check_all({0: replica(2)})
    assert report.consistent
    assert report.exact_matches == 1
    assert report.stale_but_consistent == 0


def test_stale_committed_value_is_consistent():
    checker = ConsistencyChecker(server_with_history())
    report = checker.check_all({0: replica(1)})
    assert report.consistent
    assert report.stale_but_consistent == 1


def test_uncommitted_value_is_violation():
    checker = ConsistencyChecker(server_with_history())
    report = checker.check_all({3: replica(99)})
    assert not report.consistent
    assert report.violation_count == 1
    violation = report.violations[0]
    assert violation.client_id == 3
    assert violation.oid == "o:0"
    assert violation.held == {"v": 99}


def test_unknown_object_is_violation():
    checker = ConsistencyChecker(server_with_history())
    ghost = ObjectStore([WorldObject("ghost:0", {"v": 1})])
    report = checker.check_all({0: ghost})
    assert not report.consistent


def test_check_all_aggregates():
    checker = ConsistencyChecker(server_with_history())
    report = checker.check_all({0: replica(2), 1: replica(1), 2: replica(7)})
    assert report.objects_checked == 3
    assert report.exact_matches == 1
    assert report.stale_but_consistent == 1
    assert report.violation_count == 1
    assert "3 object replicas" in report.summary()


def test_check_uniform_passes_identical_replicas():
    report = check_uniform({0: replica(5), 1: replica(5)})
    assert report.consistent
    assert report.objects_checked == 2


def test_check_uniform_flags_disagreement():
    report = check_uniform({0: replica(5), 1: replica(6)})
    assert not report.consistent
    assert report.violations[0].client_id == 1


def test_check_uniform_partial_overlap_ok():
    a = ObjectStore([WorldObject("o:0", {"v": 1}), WorldObject("o:1", {"v": 2})])
    b = ObjectStore([WorldObject("o:1", {"v": 2})])
    report = check_uniform({0: a, 1: b})
    assert report.consistent


def test_pairwise_divergence():
    divergent = pairwise_divergence({0: replica(1), 1: replica(2), 2: replica(1)})
    assert (0, 1, "o:0") in divergent
    assert (1, 2, "o:0") in divergent
    assert (0, 2, "o:0") not in divergent


def test_pairwise_divergence_ignores_disjoint_objects():
    a = ObjectStore([WorldObject("o:0", {"v": 1})])
    b = ObjectStore([WorldObject("o:1", {"v": 9})])
    assert pairwise_divergence({0: a, 1: b}) == []
