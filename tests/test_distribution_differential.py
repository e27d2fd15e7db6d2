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

from repro.core import engine as engine_module
from repro.core.action import BlindWrite
from repro.core.engine import SeveConfig, SeveEngine
from repro.core.messages import ActionBatch, GroupBundle
from repro.core.server_incomplete import IncompleteWorldServer
from repro.harness.config import SimulationSettings
from repro.harness.workload import MoveWorkload
from repro.types import SERVER_ID
from repro.world.manhattan import ManhattanWorld
from tests.reference.distribution_reference import (
    FullScanServer,
    use_reference_distribution,
)

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


def _run_workload(mode: str, *, settings=DIFF_SETTINGS):
    world = ManhattanWorld(settings.num_clients, settings.manhattan_config())
    config = SeveConfig(
        mode=mode,
        rtt_ms=settings.rtt_ms,
        bandwidth_bps=settings.bandwidth_bps,
        omega=settings.omega,
        tick_ms=settings.tick_ms,
        threshold=settings.effective_threshold,
        eval_overhead_ms=settings.eval_overhead_ms,
    )
    engine = SeveEngine(world, settings.num_clients, config)

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

    workload = MoveWorkload(engine, world, settings)
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
