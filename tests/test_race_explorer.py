"""Tests for the schedule-permutation race explorer
(docs/static_analysis.md, ``repro.analysis.races``).

The explorer's value rests on three properties, each pinned here:

1. *Soundness of the identity schedule* — an unbound or rule-less
   perturber adds zero delay, so instrumentation alone cannot change a
   run (byte-identical fingerprints, asserted per scenario by
   ``explore`` itself and re-checked here via ``deterministic``).
2. *The shipped protocol passes every explored schedule* — the
   default scenarios (K=2 elastic epoch churn, K=2 lease failover, and
   the reactive deferred-reply weave) hold their invariants under all
   permutation rules.  This is the CI gate in scripts/test.sh.
3. *A reintroduced PR 9-style gap is caught and shrunk* — seeding the
   historical deferred-push bug (a reply that waits for the commit
   frontier, and an entry that commits while its reply is deferred is
   neither taught nor confirmed) flips the explorer to VIOLATIONS with a
   minimal reordering trace, while the identity schedule still passes:
   exactly the class of bug example-based tests missed the first time.
"""

from __future__ import annotations

import json

import pytest

import repro.core.server_incomplete as server_incomplete
from repro.analysis.races import (
    _BIG,
    RULES,
    SchedulePerturber,
    default_scenarios,
    explore,
)


def _scenario(name):
    return {s.name: s for s in default_scenarios()}[name]


# ----------------------------------------------------------------------
# Perturber unit behaviour
# ----------------------------------------------------------------------
def test_identity_perturber_records_but_never_delays():
    perturber = SchedulePerturber(window_ms=5.0, rule=None, scope="all")
    for i in range(6):
        delay = perturber(i, -1, object(), 1.0 + i * 2.0)
        assert delay == 0.0
    assert len(perturber.log) == 6
    # now = 1,3,5,7,9,11 over 5ms windows -> counts {0: 2, 1: 3, 2: 1};
    # window 2 has a lone send, so only 0 and 1 are perturbable.
    assert perturber.perturbable_windows() == [0, 1]


def test_rank_rules_keep_deliveries_inside_the_next_window():
    # Perturbed delivery offsets stay below 1.25 windows, so a send can
    # never leapfrog the *next* window's messages (FIFO links then
    # clamp within-window order to the rank order).
    for rule_name, rule in sorted(RULES.items()):
        perturber = SchedulePerturber(window_ms=5.0, rule=rule, scope="all")
        for i in range(16):
            now = 0.3 * i
            delay = perturber(i % 4, -1, object(), now)
            assert 0.0 <= now % 5.0 + delay < 5.0 * 1.25, rule_name


def test_rank_rules_are_process_stable():
    # by-type hashes with crc32, not hash(): same ranks in every
    # process, a prerequisite for reproducing shrunk traces.
    assert RULES["by-type"](0, 1, 2, "SubmitAction") == \
        RULES["by-type"](0, 9, 9, "SubmitAction")
    assert RULES["reverse"](0, 0, 0, "X") == _BIG - 1
    assert RULES["swap-adjacent"](4, 0, 0, "X") == 5
    assert RULES["swap-adjacent"](5, 0, 0, "X") == 4


# ----------------------------------------------------------------------
# The shipped tree under permuted schedules
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_default_scenarios_pass_all_schedules():
    report = explore()
    assert report.ok, report.summary()
    assert len(report.results) == 3
    for result in report.results:
        assert result.deterministic is True, result.scenario
        assert result.perturbable_windows >= 2, result.scenario
        assert result.schedules >= 5, result.scenario
    # JSON form is schema-stable for the bench harness.
    document = json.loads(json.dumps(report.to_dict()))
    assert set(document) == {
        "window_ms", "total_runs", "total_schedules", "ok", "scenarios",
    }


def test_reactive_scenario_exercises_reply_parking():
    # Guard against the scenario silently going vacuous: the weave must
    # actually defer reactive replies behind a late entry that can ship
    # neither as its value nor as code, and every deferred reply must
    # eventually leave its client's pending list (answered, or taught
    # when its entry committed first).
    prepared = _scenario("reactive-deferred").build()
    prepared.run()
    assert prepared.check() == []
    server = prepared.engine.server
    assert server.stats.closures_deferred > 0
    assert all(not record.pending for record in server.clients.values())


# ----------------------------------------------------------------------
# Regression: the explorer catches a reintroduced PR 9 deferred-push gap
# ----------------------------------------------------------------------
def _no_teach_commit(self, client_id, pos, action_id, written):
    """The historical bug: an entry that commits while its originator
    does not hold it (a reactive reply still deferred) is neither
    taught nor confirmed, leaving the originator pending forever under
    the right delivery order."""


def _frontier_guard(walk):
    """A frontier wait in front of the late-entry rule of
    ``core/closure.py``, which ships an entry below the client's
    high-water mark as its value or as code, or defers the closure
    until a completion arrives: here such a closure waits instead until
    the commit frontier passes the late entry, which is what exposes
    the bug.  Under the rule alone a deferred reply goes out on the
    late entry's first completion, which reaches the server before any
    completion of what depends on it, so the entry the reply carries
    cannot commit first and the missing teach never bites."""

    def guarded(entries, candidate_index, client_id, *, high_water=-1, **index):
        chain, seed = walk(entries, candidate_index, client_id, **index)
        if chain is not None and entries[chain[0]].pos < high_water:
            for member in chain:
                entries[member].sent.discard(client_id)
            return None, frozenset()
        return chain, seed

    return guarded


@pytest.mark.slow
def test_seeded_deferred_reply_gap_is_caught_and_shrunk(monkeypatch):
    monkeypatch.setattr(
        server_incomplete,
        "transitive_closure",
        _frontier_guard(server_incomplete.transitive_closure),
    )
    monkeypatch.setattr(
        server_incomplete.IncompleteWorldServer,
        "_teach_commit",
        _no_teach_commit,
    )
    report = explore([_scenario("reactive-deferred")])
    assert not report.ok, "seeded PR 9 gap must be caught"
    (result,) = report.results
    # The identity schedule still passes -- only a permuted delivery
    # order exposes the gap, which is the whole point of the explorer.
    assert result.deterministic is True
    assert result.violations
    violation = result.violations[0]
    assert violation.rule in RULES
    assert violation.windows is not None and len(violation.windows) >= 1
    assert any(
        "quiescence" in p or "deferred" in p for p in violation.problems
    )
    # The shrunk trace shows a concrete reordering, not just a verdict.
    assert violation.trace
    for entry in violation.trace:
        assert set(entry) == {"window", "sent", "delivered"}
        assert sorted(entry["sent"]) == sorted(entry["delivered"])
    assert any(
        entry["sent"] != entry["delivered"] for entry in violation.trace
    )
