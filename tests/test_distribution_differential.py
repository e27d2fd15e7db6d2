"""Differential proof of the determinism invariant: the indexed
(output-sensitive) distribution path must be observationally equivalent
to the brute-force scans it replaced.

A randomized First-Bound workload (32 clients, a few hundred moves) is
run twice — on the shipped server (spatial client index + inverted
write index), then on the scans kept as oracles in
``tests/reference/distribution_reference.py`` — and everything a client
or experimenter could observe is compared:
every server->client batch (destination, virtual send time, entry
positions, blind-write contents, wire size), the full
``IncompleteServerStats``, per-client protocol stats, and the final
authoritative :class:`VersionedStore` contents.  The indexes may only
change *wall-clock* time, never *virtual-time* outcomes
(docs/performance.md).
"""

from __future__ import annotations

import pytest

from repro.adversary import AdversaryPlan, parse_adversary_plan
from repro.core import engine as engine_module
from repro.core import server_incomplete as server_module
from repro.core.action import BlindWrite
from repro.core.engine import SeveEngine
from repro.core.messages import ActionBatch, GroupBundle
from repro.core.server_incomplete import IncompleteWorldServer
from repro.core.indexes import ClientSpatialIndex
from repro.harness.architectures import seve_config
from repro.harness.config import SimulationSettings
from repro.harness.runner import run_simulation
from repro.harness.workload import MoveWorkload
from repro.net.faults import CrashWindow, FaultPlan, parse_crash_plan
from repro.net.network import Network
from repro.types import SERVER_ID
from repro.world.manhattan import ManhattanWorld
from repro.world.movement import MoveAction
from repro.world.walls import WallField
from tests.reference.distribution_reference import (
    FullScanServer,
    use_reference_distribution,
)
from tests.reference.movement_reference import use_reference_movement

DIFF_SETTINGS = SimulationSettings(
    num_clients=32,
    num_walls=300,
    moves_per_client=10,
    world_width=400.0,
    world_height=400.0,
    spawn="cluster",
    spawn_extent=140.0,
    rtt_ms=150.0,
    bandwidth_bps=None,
    move_interval_ms=200.0,
    cost_model="fixed",
    move_cost_ms=1.0,
    eval_overhead_ms=0.1,
    seed=13,
)


def _entry_fingerprint(ordered):
    """Stable identity of one wire entry, blind-write payload included."""
    action = ordered.action
    if isinstance(action, BlindWrite):
        values = action.compute(None)
        payload = tuple(
            (oid, tuple(sorted(attrs.items()))) for oid, attrs in sorted(values.items())
        )
        return ("blind", ordered.pos, action.action_id, payload)
    return ("action", ordered.pos, action.action_id)


def _late_values(sends, field=2):
    """How many late entries the logged ``sends`` shipped as their
    values: a blind write at a queue position (fingerprints in
    ``send[field]``)."""
    return sum(
        fingerprint[0] == "blind" and fingerprint[1] >= 0
        for send in sends
        for fingerprint in send[field]
    )


def _counting_walks(patch, calls):
    """Count the closure walks every server makes: full Algorithm 6
    walks in ``calls["walks"]``, a push cycle's all-sent walks in
    ``calls["all_sent"]`` and the closures answered from one in
    ``calls["held"]``."""
    walk, all_sent, held = (
        server_module.transitive_closure, server_module.all_sent_walk, server_module.held_closure
    )

    def counted_walk(*args, **kwargs):
        calls["walks"] += 1
        return walk(*args, **kwargs)

    def counted_all_sent(*args, **kwargs):
        calls["all_sent"] += 1
        return all_sent(*args, **kwargs)

    def counted_held(*args):
        closure = held(*args)
        calls["held"] += closure is not None
        return closure

    patch.setattr(server_module, "transitive_closure", counted_walk)
    patch.setattr(server_module, "all_sent_walk", counted_all_sent)
    patch.setattr(server_module, "held_closure", counted_held)


def _run_workload(mode: str, *, settings=DIFF_SETTINGS):
    world = ManhattanWorld(settings.num_clients, settings.manhattan_config())
    engine = SeveEngine(world, settings.num_clients, seve_config(settings, mode))

    sends = []
    real_send = engine.network.send

    def logging_send(src, dst, payload, size_bytes):
        if src == SERVER_ID and isinstance(payload, ActionBatch):
            sends.append(
                (
                    engine.sim.now,
                    dst,
                    tuple(_entry_fingerprint(entry) for entry in payload.entries),
                    payload.last_installed,
                    size_bytes,
                )
            )
        elif src == SERVER_ID and isinstance(payload, GroupBundle):
            sends.append(
                (
                    engine.sim.now,
                    dst,
                    tuple(_entry_fingerprint(entry) for entry in payload.shared),
                    tuple(
                        (member, tuple(item if isinstance(item, int) else _entry_fingerprint(item) for item in items))
                        for member, items in payload.members
                    ),
                    payload.last_installed,
                    size_bytes,
                )
            )
        return real_send(src, dst, payload, size_bytes)

    engine.network.send = logging_send

    calls = {"walks": 0, "all_sent": 0, "held": 0}
    workload = MoveWorkload(engine, world, settings)
    with pytest.MonkeyPatch.context() as patch:
        _counting_walks(patch, calls)
        engine.start(stop_at=settings.workload_duration_ms + 2_000.0)
        workload.install()
        engine.run(until=settings.workload_duration_ms + 2_000.0)
        engine.run_to_quiescence()

    final_state = {
        oid: tuple(sorted(engine.state.get(oid).as_dict().items()))
        for oid in engine.state.ids()
    }
    client_stats = {
        client_id: client.stats for client_id, client in engine.clients.items()
    }
    return {
        "server_stats": engine.server.stats,
        "sends": sends,
        "final_state": final_state,
        "client_stats": client_stats,
        "sim_end": engine.sim.now,
        "moves": workload.stats.moves_submitted,
        **calls,
    }


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["first-bound", "seve"])
def test_indexed_and_brute_distribution_are_observationally_identical(
    mode, monkeypatch
):
    indexed = _run_workload(mode)
    use_reference_distribution(monkeypatch)
    brute = _run_workload(mode)

    assert indexed["moves"] == brute["moves"] > 200  # "a few hundred actions"
    assert indexed["server_stats"] == brute["server_stats"]
    assert indexed["sends"] == brute["sends"]
    assert indexed["final_state"] == brute["final_state"]
    assert indexed["client_stats"] == brute["client_stats"]
    assert indexed["sim_end"] == brute["sim_end"]
    # The workload actually distributed something (guards against a
    # vacuous pass where the push path never ran).
    assert indexed["server_stats"].entries_distributed > 0
    assert indexed["server_stats"].push_cycles > 0
    # ... some closures deferred (and in SEVE proper late entries went
    # out as values); both servers walked every closure they charged.
    assert indexed["server_stats"].closures_deferred > 0
    assert mode == "first-bound" or _late_values(indexed["sends"]) > 0
    # The oracle walked each of them in full; the shipped server answered
    # most from the push cycle's one all-sent walk of their entry.
    assert brute["walks"] == brute["server_stats"].closures_computed
    assert brute["all_sent"] == brute["held"] == 0
    assert indexed["walks"] + indexed["held"] == brute["walks"]
    assert 0 < indexed["all_sent"] + indexed["walks"] < brute["walks"]


@pytest.mark.slow
def test_indexed_reactive_replies_match_brute_force(monkeypatch):
    """The inverted write index also drives Algorithm 6 in the reactive
    Incomplete World mode (no pushes) — closure replies must be
    identical too."""
    settings = DIFF_SETTINGS.with_(num_clients=16, moves_per_client=8)
    indexed = _run_workload("incomplete", settings=settings)
    use_reference_distribution(monkeypatch)
    brute = _run_workload("incomplete", settings=settings)
    assert indexed["server_stats"] == brute["server_stats"]
    assert indexed["sends"] == brute["sends"]
    assert indexed["final_state"] == brute["final_state"]
    assert indexed["server_stats"].closures_computed > 0


@pytest.mark.slow
def test_server_without_avatar_lookup_matches_the_full_scan(monkeypatch):
    """A push-mode server built with ``avatar_of=None`` used to have no
    spatial index and fall back to the whole-window scan.  It now keeps
    the index with every client position-less — a candidate for every
    action — and must deliver exactly what the scan did."""

    def without_avatars(server_cls):
        class AvatarBlind(server_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **{**kwargs, "avatar_of": None})

        return AvatarBlind

    settings = DIFF_SETTINGS.with_(num_clients=16, moves_per_client=8)
    monkeypatch.setattr(
        engine_module, "IncompleteWorldServer", without_avatars(IncompleteWorldServer)
    )
    indexed = _run_workload("first-bound", settings=settings)
    use_reference_distribution(monkeypatch, without_avatars(FullScanServer))
    brute = _run_workload("first-bound", settings=settings)
    assert indexed["server_stats"] == brute["server_stats"]
    assert indexed["sends"] == brute["sends"]
    assert indexed["final_state"] == brute["final_state"]
    assert indexed["client_stats"] == brute["client_stats"]
    # Nobody's position is known, so nothing may be withheld: every
    # client evaluated every move.
    moves = indexed["moves"]
    assert moves > 100
    assert all(
        stats.stable_evaluations == moves
        for stats in indexed["client_stats"].values()
    )


# ---------------------------------------------------------------------------
# Under faults, single-serializer and sharded
# ---------------------------------------------------------------------------
#: Loss, jitter and duplication on every link, one client that crashes
#: and comes back, one that stays dead; the K = 4 plan adds a shard host
#: that dies mid-run (survivors ``note_shard_down``: spliced entries
#: flip to ``valid=False`` while pending) and restarts from its
#: checkpoint + WAL early enough to splice and push again (``resume()``:
#: a fresh server whose positions continue the dead one's).
#: (Clients 7 and 9 live on shards that survive.  A client whose own
#: crash window overlaps its home shard's ends inconsistent with or
#: without this PR — client 3 here — which the strict xfail at the end
#: of this file pins, shrunk, for ROADMAP item 4a's fix to flip.)
_CLIENT_CRASHES = (CrashWindow(7, 700.0, 1_600.0), CrashWindow(9, 900.0))
FAULT_PLANS = {
    1: FaultPlan(
        loss_rate=0.05, jitter_ms=20.0, duplicate_rate=0.02, seed=7,
        crashes=_CLIENT_CRASHES,
    ),
    4: FaultPlan(
        loss_rate=0.05, jitter_ms=20.0, duplicate_rate=0.02, seed=7,
        crashes=_CLIENT_CRASHES
        + (CrashWindow(-1, 500.0, 1_100.0, shard_index=2),),
    ),
}


def _run_faulty(monkeypatch, settings):
    """One ``run_simulation`` with every server -> client batch logged
    at the network seam, and the index/re-nomination calls and the
    closure walks counted."""
    sends = []
    calls = {"candidates": 0, "renominated": 0, "walks": 0, "all_sent": 0, "held": 0}
    real_send = Network.send
    real_candidates = ClientSpatialIndex.candidates
    real_renominated = IncompleteWorldServer._renominated

    def logging_send(network, src, dst, payload, size_bytes, **kwargs):
        if src < 0 and isinstance(payload, ActionBatch):
            sends.append(
                (
                    network.sim.now,
                    src,
                    dst,
                    tuple(_entry_fingerprint(entry) for entry in payload.entries),
                    payload.last_installed,
                    size_bytes,
                )
            )
        return real_send(network, src, dst, payload, size_bytes, **kwargs)

    def counted_candidates(index, center, radius):
        calls["candidates"] += 1
        return real_candidates(index, center, radius)

    def counted_renominated(server, record, start):
        calls["renominated"] += 1
        return real_renominated(server, record, start)

    with monkeypatch.context() as patch:
        patch.setattr(Network, "send", logging_send)
        patch.setattr(ClientSpatialIndex, "candidates", counted_candidates)
        patch.setattr(IncompleteWorldServer, "_renominated", counted_renominated)
        _counting_walks(patch, calls)
        result = run_simulation("seve", settings)
    rows = tuple(tuple(sorted(row.items())) for row in result.shard_rows or ())
    observed = (
        result.moves_submitted,
        result.responses_observed,
        result.response,
        result.client_traffic_kb,
        result.server_traffic_kb,
        result.virtual_ms,
        result.events,
        result.messages_dropped,
        result.retransmissions,
        result.clients_evicted,
        result.drop_percent,
        result.closure_cpu_ms,
        result.detection_records,
        result.rwset_violations,
        result.consistency.consistent,
        rows,
    )
    return sends, observed, calls


@pytest.mark.slow
@pytest.mark.parametrize("shards", [1, 4])
def test_pending_lists_match_the_full_scan_under_loss_and_crashes(
    shards, monkeypatch
):
    settings = DIFF_SETTINGS.with_(
        num_clients=24,
        moves_per_client=12,
        spawn="uniform",
        shards=shards,
        fault_plan=FAULT_PLANS[shards],
    )
    sends, observed, calls = _run_faulty(monkeypatch, settings)
    use_reference_distribution(monkeypatch)
    brute_sends, brute_observed, brute_calls = _run_faulty(monkeypatch, settings)

    assert sends == brute_sends
    assert observed == brute_observed
    assert len(sends) > 100
    assert observed[-2], "the faulty run itself must stay consistent"
    # The oracle is independent of what it checks: it never asked the
    # spatial index and never re-nominated; the shipped server asked,
    # and at K = 4 a client drifted out of its anchor's margin (at
    # K = 1 none lags that long: the hand-driven drift cases are in
    # tests/test_push_pending.py).  Late entries went out as values.
    assert brute_calls["candidates"] == brute_calls["renominated"] == 0
    assert calls["candidates"] > 0 and (shards == 1 or calls["renominated"] > 0)
    assert _late_values(sends, field=3) > 0
    assert calls["walks"] + calls["held"] == brute_calls["walks"]
    assert brute_calls["all_sent"] == brute_calls["held"] == 0 < calls["held"]


@pytest.mark.slow
@pytest.mark.parametrize(
    "settings",
    [
        DIFF_SETTINGS.with_(num_clients=16, spawn_extent=40.0),
        DIFF_SETTINGS.with_(
            num_clients=24, moves_per_client=12, spawn="uniform",
            fault_plan=FAULT_PLANS[1],
        ),
        # Five cheat models at K = 4, every evaluation under the
        # sanitizer: detection and quarantine must not move either.
        DIFF_SETTINGS.with_(
            num_clients=24, moves_per_client=8, spawn_extent=60.0, shards=4,
            adversary=AdversaryPlan(parse_adversary_plan(
                "lying-rs:3,forge:5,lying-ws:7,nondet:11,replay:13"
            )),
            rwset_sanitizer="raise",
        ),
    ],
    ids=["crowd", "lossy-crashes", "k4-adversary"],
)
def test_remembered_evaluations_change_no_outcome(settings, monkeypatch):
    """A ``MoveAction`` evaluates once per distinct set of consulted
    inputs instead of once per replica; against the form that evaluates
    every time (``tests/reference/movement_reference.py``) every batch
    on the wire and every measured result must be identical."""
    counts = {"computes": 0, "walls": 0}
    real_walk = WallField.first_obstruction

    def count_computes():
        compute = MoveAction.compute

        def counted_compute(action, store, *args):
            counts["computes"] += 1
            return compute(action, store, *args)

        monkeypatch.setattr(MoveAction, "compute", counted_compute)

    def counted_walk(walls, start, end):
        counts["walls"] += 1
        return real_walk(walls, start, end)

    monkeypatch.setattr(WallField, "first_obstruction", counted_walk)
    count_computes()
    sends, observed, _ = _run_faulty(monkeypatch, settings)
    remembered, counts["computes"] = counts["computes"], 0
    remembered_walls, counts["walls"] = counts["walls"], 0
    use_reference_movement(monkeypatch)
    count_computes()
    walked_sends, walked_observed, _ = _run_faulty(monkeypatch, settings)

    assert sends == walked_sends
    assert observed == walked_observed
    assert len(sends) > 100
    # Not a vacuous pass: replicas did share evaluations and wall walks.
    assert 0 < remembered < counts["computes"]
    assert 0 < remembered_walls < counts["walls"]


@pytest.mark.xfail(strict=True, reason="ROADMAP 4a")
def test_client_crash_inside_its_home_shards_crash_stays_consistent():
    """The live Theorem 1 violation of ROADMAP item 4a, shrunk from 12
    moves to 2 (0.13 s): client 3 crashes at 600 ms while its home shard
    2 is down (400-1000 ms), rejoins at 900 ms, before the shard is
    back, and ends with a stable ``avatar:3`` one move ahead of the
    committed store — "27 object replicas checked: 26 current,
    0 stale-but-committed, 1 violations".

    The plan was ``s2@500:1100`` until a span's owner-shard clients
    started getting its code: that plan comes out consistent since,
    while ``s2@400:1000`` fails before and after.  Measured on this
    plan — it stays inconsistent at ``shards=3``, at ``workers=2``,
    with 20 clients, with ``duplicate_rate=0``, loss-free, and without
    the shard crash (the client crash alone), and is consistent with
    ``jitter_ms=0``.  As a command line (exit status 1)::

        python -m repro run seve --clients 24 --walls 300 --moves 2 \\
          --world-width 400 --world-height 400 --spawn uniform \\
          --spawn-extent 140 --rtt-ms 150 --bandwidth-bps none \\
          --move-interval-ms 200 --move-cost-ms 1 --eval-overhead-ms 0.1 \\
          --seed 13 --shards 4 --loss-rate 0.05 --jitter-ms 20 \\
          --dup-rate 0.02 --fault-seed 7 --crash-plan 3@600:900,s2@400:1000

    Fixing it is item 4's PR: the strict xfail makes that PR flip this
    test instead of re-finding the plan.
    """
    settings = DIFF_SETTINGS.with_(
        num_clients=24,
        moves_per_client=2,
        spawn="uniform",
        shards=4,
        fault_plan=FaultPlan(
            loss_rate=0.05, jitter_ms=20.0, duplicate_rate=0.02, seed=7,
            crashes=parse_crash_plan("3@600:900,s2@400:1000"),
        ),
    )
    report = run_simulation("seve", settings).consistency
    assert report.consistent, report.summary()


@pytest.mark.xfail(strict=True, reason="ROADMAP 4a")
def test_a_client_crash_alone_at_one_shard_stays_consistent_and_quiesces():
    """ROADMAP item 4a's class at K = 1, with no network fault: client 3
    crashes at 600 ms and rejoins at 900 ms.  The run idles to its
    drain deadline (120 900 ms virtual, 47 of 48 responses) and ends
    "40 object replicas checked: 27 current, 0 stale-but-committed,
    13 violations".  Its head entry is client 3's own second move,
    valid, with an empty sent(a), which client 3 still holds pending
    and nothing re-sends.  As a command line (exit status 1)::

        python -m repro run seve --clients 24 --walls 300 --moves 2 \\
          --world-width 400 --world-height 400 --spawn uniform \\
          --spawn-extent 140 --rtt-ms 150 --bandwidth-bps none \\
          --move-interval-ms 200 --move-cost-ms 1 --eval-overhead-ms 0.1 \\
          --seed 13 --fault-seed 1 --crash-plan 3@600:900
    """
    settings = DIFF_SETTINGS.with_(
        num_clients=24,
        moves_per_client=2,
        spawn="uniform",
        fault_plan=FaultPlan(seed=1, crashes=parse_crash_plan("3@600:900")),
    )
    result = run_simulation("seve", settings)
    assert result.consistency.consistent, result.consistency.summary()
    assert result.virtual_ms < settings.submit_horizon_ms + settings.drain_ms
