"""Failure injection: clients dying mid-run must never corrupt the
survivors' view of the world, in any architecture.

The paper's fault-tolerance note (Section III-C): with completion
messages from every evaluating client, "the only case in which the
server does not receive a response to some action is when all clients
that evaluate that action have failed", and then "it is acceptable to
assume that the action was never submitted".
"""

from __future__ import annotations

import pytest

from repro.core.action import ActionId
from repro.core.engine import SeveConfig, SeveEngine
from repro.harness import runner
from repro.harness.architectures import build_engine, build_world
from repro.harness.config import SimulationSettings
from repro.harness.workload import MoveWorkload
from repro.metrics.consistency import ConsistencyChecker
from repro.net.faults import CrashWindow, FaultPlan
from repro.types import SERVER_ID
from repro.world.manhattan import ManhattanConfig, ManhattanWorld
from tests.test_golden_runs import BASE as GOLDEN_BASE, LOSSY


SETTINGS = SimulationSettings(
    num_clients=6,
    num_walls=80,
    moves_per_client=10,
    world_width=200.0,
    world_height=200.0,
    spawn_extent=50.0,
    seed=23,
)


def run_with_casualty(architecture: str, kill_at: float = 800.0):
    """Run the workload, killing client 0 mid-run."""
    world = build_world(SETTINGS)
    engine = build_engine(architecture, SETTINGS, world)
    workload = MoveWorkload(engine, world, SETTINGS)
    engine.start()
    workload.install()

    def kill() -> None:
        workload.stop_client(0)
        engine.network.unregister(0)

    engine.sim.schedule(kill_at, kill)
    engine.run(until=SETTINGS.workload_duration_ms + 1000)
    engine.run_to_quiescence(max_extra_ms=30_000)
    return engine


@pytest.mark.parametrize(
    "architecture",
    ["central", "broadcast", "ring", "seve", "incomplete", "locking",
     "timestamp", "zoned"],
)
def test_client_death_does_not_crash_any_architecture(architecture):
    engine = run_with_casualty(architecture)
    # Survivors kept confirming actions after the death.
    survivors = [cid for cid in engine.clients if cid != 0]
    responses = engine.response_times
    assert sum(
        responses.client_summary(cid).count for cid in survivors
    ) > 0


def test_seve_survivor_replicas_stay_uncorrupted():
    """With fault-tolerant completions (the paper's §III-C remedy), a
    casualty's in-flight actions still commit via the survivors'
    reports, so nothing is left dangling."""
    global SETTINGS
    settings = SETTINGS.with_(fault_tolerant=True)
    world = build_world(settings)
    engine = build_engine("seve", settings, world)
    workload = MoveWorkload(engine, world, settings)
    engine.start()
    workload.install()

    def kill() -> None:
        workload.stop_client(0)
        engine.network.unregister(0)

    engine.sim.schedule(800.0, kill)
    engine.run(until=settings.workload_duration_ms + 1000)
    engine.run_to_quiescence(max_extra_ms=30_000)
    checker = ConsistencyChecker(engine.state)
    replicas = {
        cid: client.stable
        for cid, client in engine.clients.items()
        if cid != 0
    }
    report = checker.check_all(replicas)
    assert report.consistent, report.violations[:3]


def test_seve_fault_tolerant_mode_commits_orphans():
    """With report_all_completions, an action outlives its originator."""
    world = ManhattanWorld(
        4,
        ManhattanConfig(width=150.0, height=150.0, num_walls=20,
                        spawn="cluster", spawn_extent=20.0, seed=3),
    )
    engine = SeveEngine(
        world, 4,
        SeveConfig(mode="seve", rtt_ms=100.0, tick_ms=20.0,
                   fault_tolerant=True, seed_full_state=True),
    )
    engine.start(stop_at=60_000)
    victim = engine.client(0)
    # The victim acts once, then dies before its own echo returns.
    victim.submit(world.plan_move(victim.optimistic, 0, victim.next_action_id(),
                                  cost_ms=1.0))
    engine.sim.schedule(60.0, lambda: engine.network.unregister(0))
    # Survivors keep acting so pushes and completions flow.
    for cid in (1, 2, 3):
        client = engine.client(cid)

        def submit(cid=cid, client=client, n={"left": 5}):
            if n["left"] <= 0:
                return
            n["left"] -= 1
            client.submit(world.plan_move(
                client.optimistic, cid, client.next_action_id(), cost_ms=1.0
            ))

        engine.sim.call_every(200.0, submit, start_delay=20.0 + cid,
                              stop_at=1400.0)
    engine.run(until=3000.0)
    engine.run_to_quiescence(max_extra_ms=10_000)
    # The dead client's action was evaluated (and completion-reported) by
    # a survivor within range, so it committed.
    committed_by_victim = [
        record for record in engine.server.known._known  # noqa: SLF001
    ] if False else None
    assert engine.server.stats.actions_committed >= 1
    # And no survivor's replica was corrupted by the orphan commit.
    checker = ConsistencyChecker(engine.state)
    report = checker.check_all(
        {cid: c.stable for cid, c in engine.clients.items() if cid != 0}
    )
    assert report.consistent


ALL_ARCHITECTURES = [
    "central", "broadcast", "ring", "seve", "incomplete", "locking",
    "timestamp", "zoned",
]


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_midflight_crash_cancels_inflight_deliveries(architecture):
    """Killing a client via Network.crash while messages are in flight
    both directions must cancel the deliveries to the corpse — counted
    as undelivered, never raised, never handed to a dead handler."""
    world = build_world(SETTINGS)
    engine = build_engine(architecture, SETTINGS, world)
    workload = MoveWorkload(engine, world, SETTINGS)
    engine.start()
    workload.install()

    def kill() -> None:
        # Put a delivery genuinely in flight toward the victim at the
        # instant of death (servers now stop *initiating* sends to a
        # parked client, so protocol traffic alone cannot be relied on
        # to be mid-wire at an arbitrary kill time).
        engine.network.send(SERVER_ID, 0, "probe", 8)
        workload.stop_client(0)
        engine.network.crash(0)
        engine.mark_dead(0)

    # 800ms is mid-interval: client 0 has submissions in flight up and
    # replies in flight down when it dies.
    engine.sim.schedule(800.0, kill)
    engine.run(until=SETTINGS.workload_duration_ms + 1000)
    engine.run_to_quiescence(max_extra_ms=30_000)
    assert engine.network.meter.messages_undelivered > 0
    survivors = [cid for cid in engine.clients if cid != 0]
    assert sum(
        engine.response_times.client_summary(cid).count for cid in survivors
    ) > 0


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_midflight_crash_with_reconnect(architecture):
    """A crashed client that reconnects resumes receiving traffic (the
    parked handler is revived in place), with the full fault machinery
    — ARQ, retries, liveness — active."""
    plan = FaultPlan(
        seed=5, crashes=(CrashWindow(0, 800.0, reconnect_at_ms=2_400.0),)
    )
    settings = SETTINGS.with_(fault_plan=plan)
    world = build_world(settings)
    engine = build_engine(architecture, settings, world)
    workload = MoveWorkload(engine, world, settings)
    horizon = settings.workload_duration_ms + 1000
    engine.start(stop_at=horizon + 15_000.0)
    workload.install()
    delivered_at_revival = {}

    def kill() -> None:
        workload.stop_client(0)
        engine.network.crash(0)
        engine.mark_dead(0)

    def revive() -> None:
        delivered_at_revival["n"] = engine.network.link(SERVER_ID, 0).delivered
        engine.network.reconnect(0)
        engine.mark_alive(0)
        workload.resume_client(0)

    engine.sim.schedule(800.0, kill)
    engine.sim.schedule(2_400.0, revive)
    engine.run(until=horizon)
    engine.run_to_quiescence(max_extra_ms=60_000)
    # The revived client received fresh deliveries after the reconnect.
    assert (
        engine.network.link(SERVER_ID, 0).delivered
        > delivered_at_revival["n"]
    )
    survivors = [cid for cid in engine.clients if cid != 0]
    assert sum(
        engine.response_times.client_summary(cid).count for cid in survivors
    ) > 0


def test_seve_without_fault_tolerance_stalls_gracefully():
    """Without fault tolerance, an orphaned action stalls the commit
    frontier — later actions stay uncommitted but nothing corrupts."""
    world = ManhattanWorld(
        3,
        ManhattanConfig(width=150.0, height=150.0, num_walls=0,
                        spawn="cluster", spawn_extent=20.0, seed=3),
    )
    engine = SeveEngine(
        world, 3,
        SeveConfig(mode="seve", rtt_ms=100.0, tick_ms=20.0),
    )
    engine.start(stop_at=30_000)
    victim = engine.client(0)
    victim.submit(world.plan_move(victim.optimistic, 0, victim.next_action_id(),
                                  cost_ms=1.0))
    engine.sim.schedule(10.0, lambda: engine.network.unregister(0))
    other = engine.client(1)
    engine.sim.schedule(
        400.0,
        lambda: other.submit(world.plan_move(
            other.optimistic, 1, other.next_action_id(), cost_ms=1.0
        )),
    )
    engine.run(until=3000.0)
    # The orphan never completes: frontier stuck before it.
    assert engine.server.commit_frontier == -1
    assert engine.server.uncommitted_count >= 1
    # Survivors may have *applied* the orphan and everything serialized
    # after it (the stream arrived before the death was known), so they
    # run AHEAD of ζ_S — the precise gap §III-C's fault-tolerant
    # completions close.  Ahead is not corrupted: replaying the
    # serialized-but-uncommitted queue over the initial state must
    # reproduce exactly what the survivor holds.
    from repro.state.store import ObjectStore
    from repro.world.avatar import avatar_id

    replay = ObjectStore(world.initial_objects())
    for entry in engine.server._entries:  # noqa: SLF001 - test introspection
        if entry.valid is not False:
            entry.action.apply(replay)
    survivor = engine.client(1).stable
    assert survivor.get(avatar_id(1)) == replay.get(avatar_id(1))


def test_a_commit_that_overtakes_the_originators_push_confirms_it(monkeypatch):
    # Fault tolerance lets any holder's report commit an entry.  In this
    # seeded lossy K = 1 run one commits a move of client 7, which never
    # crashes, before the push echoing it reaches client 7; the entry
    # leaves the queue, so the server confirms the move with a
    # CommitNotice.  Without the notice client 7 confirms 11 of 12.
    engines = []
    build = runner.build_engine

    def capturing(*args, **kwargs):
        engines.append(build(*args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(runner, "build_engine", capturing)
    settings = GOLDEN_BASE.with_(fault_plan=LOSSY, fault_tolerant=True)
    result = runner.run_simulation("seve", settings)
    assert result.consistency.consistent
    (engine,) = engines
    crashed = {window.client_id for window in LOSSY.crashes}
    for client_id in sorted(set(engine.clients) - crashed):
        confirmed = engine.response_times.client_summary(client_id).count
        assert confirmed == settings.moves_per_client, client_id
