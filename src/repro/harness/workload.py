"""The Manhattan People workload generator.

Per Table I, every client submits ``moves_per_client`` moves at
``move_interval_ms`` intervals.  Clients are phase-shifted by a seeded
random offset within one interval — real players do not act in lockstep,
and the Information Bound Model's fairness argument (Section III-E)
explicitly relies on the random order of arrival at the server.

Each move is planned against the client's *planning replica* (ζ_CO for
SEVE, the local view for the baselines): the avatar's current position
and heading, plus the declared read set of known avatars within the
move effect range.  The per-move simulated cost comes from the settings'
cost model ("fixed" or walls-visible-scaled).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List

from repro.errors import MissingObjectError
from repro.harness.config import (
    PAPER_COST_PER_KWALL_MS,
    WALL_COST_RADIUS,
    SimulationSettings,
)
from repro.types import ClientId
from repro.world.avatar import avatar_id, avatar_position
from repro.world.manhattan import ManhattanWorld


@dataclass
class WorkloadStats:
    """What the generator actually produced."""

    moves_submitted: int = 0
    #: Per-move costs (ms) — lets experiments report the realised mean.
    costs: List[float] = field(default_factory=list)
    #: Visible-avatar samples taken at planning time (Figure 8 x-axis).
    visible_samples: List[int] = field(default_factory=list)


class MoveWorkload:
    """Drives one engine with the Table I move workload."""

    def __init__(
        self,
        engine,
        world: ManhattanWorld,
        settings: SimulationSettings,
    ) -> None:
        self.engine = engine
        self.world = world
        self.settings = settings
        self.stats = WorkloadStats()
        self._rng = random.Random(settings.seed + 1000)
        self._remaining: Dict[ClientId, int] = {}
        self._stoppers: Dict[ClientId, object] = {}
        #: Move quota parked by stop_client, restored by resume_client.
        self._halted: Dict[ClientId, int] = {}

    def install(self, only=None) -> None:
        """Schedule every client's periodic move generation.

        ``only`` restricts generation to the given client ids (the
        partition backends activate each replica's owned slice).  The
        phase offset is still drawn for *every* client in id order so
        the RNG stream — and hence each owned client's offset — is
        identical no matter how the clients are partitioned.
        """
        interval = self.settings.move_interval_ms
        owned = None if only is None else set(only)
        # Stop the generators once every client has had time to submit
        # its full quota — otherwise the periodic events would keep the
        # simulator from ever draining.
        stop_at = self.engine.sim.now + interval * (self.settings.moves_per_client + 2)
        for client_id in range(self.settings.num_clients):
            offset = self._rng.uniform(0.0, interval)
            if owned is not None and client_id not in owned:
                continue
            self._remaining[client_id] = self.settings.moves_per_client
            self._stoppers[client_id] = self.engine.sim.call_every(
                interval,
                self._make_submitter(client_id),
                start_delay=offset,
                stop_at=stop_at,
            )

    def stop_client(self, client_id: ClientId) -> None:
        """Stop one client's move generation (failure injection: a dead
        player generates nothing)."""
        stopper = self._stoppers.pop(client_id, None)
        if stopper is not None:
            stopper()
        self._halted[client_id] = self._remaining.get(client_id, 0)
        self._remaining[client_id] = 0

    def resume_client(self, client_id: ClientId) -> None:
        """Resume a stopped client's generation (reconnect after crash).

        The client picks up its parked move quota; the generator gets a
        fresh stop horizon sized to that quota so it cannot outlive its
        own moves and stall the drain.
        """
        if client_id in self._stoppers:
            return  # never stopped (or already resumed)
        remaining = self._halted.pop(client_id, 0)
        if remaining <= 0:
            return
        self._remaining[client_id] = remaining
        interval = self.settings.move_interval_ms
        self._stoppers[client_id] = self.engine.sim.call_every(
            interval,
            self._make_submitter(client_id),
            start_delay=self._rng.uniform(0.0, interval),
            stop_at=self.engine.sim.now + interval * (remaining + 2),
        )

    def _make_submitter(self, client_id: ClientId):
        def submit() -> None:
            if self._remaining[client_id] <= 0:
                return
            self._remaining[client_id] -= 1
            self._submit_one(client_id)

        return submit

    def _submit_one(self, client_id: ClientId) -> None:
        store = self.engine.planning_store(client_id)
        try:
            action_id = self.engine.clients[client_id].next_action_id()
            cost = self._move_cost(store, client_id)
            action = self.world.plan_move(
                store, client_id, action_id, cost_ms=cost
            )
        except MissingObjectError:
            # The client does not (yet) know its own avatar — can only
            # happen in pathological configurations; skip the move.
            return
        self.stats.moves_submitted += 1
        self.stats.costs.append(cost)
        self.stats.visible_samples.append(
            self.world.visible_avatar_count(store, client_id)
        )
        self.engine.submit(client_id, action)

    def _move_cost(self, store, client_id: ClientId) -> float:
        settings = self.settings
        if settings.cost_model == "fixed":
            return settings.move_cost_ms
        me = avatar_position(store.get(avatar_id(client_id)))
        visible_walls = self.world.walls.count_near(me, WALL_COST_RADIUS)
        return PAPER_COST_PER_KWALL_MS * visible_walls / 1000.0

    @property
    def finished(self) -> bool:
        """Whether every client has generated all of its moves."""
        return all(count == 0 for count in self._remaining.values())


def start_run(engine, workload: MoveWorkload, settings: SimulationSettings) -> None:
    """Start a run: the engine's periodic processes, the fault plan's
    crash windows, then move generation for the clients the engine owns.

    The one start sequence of every drive — the harness runner, each
    partition replica of a sharded run, and the race explorer.
    """
    if engine.detector is not None:
        # Quarantined cheaters must stop generating moves, or the drain
        # waits on submissions that can never commit.
        engine.on_quarantine = workload.stop_client
    if settings.faults_active:
        # Periodic fault machinery (heartbeats, liveness sweeps) must
        # stop eventually or the simulator never drains; give it a
        # grace window past the workload for retries to settle.
        # Sharded runs get the full drain budget: a peer's closures
        # over a span serialize on its owner's result (one RTT per
        # conflict-chain link), so a jittery queue needs far longer to
        # empty — freezing pushes early would strand uncommitted spans.
        grace = settings.drain_ms if settings.shards > 1 else 15_000.0
        engine.start(stop_at=settings.submit_horizon_ms + grace)
        _schedule_crash_windows(engine, workload, settings.fault_plan)
    else:
        engine.start()
    workload.install(only=engine.owned_clients)


def _schedule_crash_windows(engine, workload: MoveWorkload, plan) -> None:
    """Put the plan's crash/reconnect windows on the virtual clock.

    Every replica of a partitioned run schedules every window; the
    sharded engine applies to its own slice what the slice owns, and a
    client the workload never installed stops and resumes as a no-op.
    """
    at = engine.sim.schedule_at

    def kill_shard(shard: int) -> None:
        for client_id in engine.crash_shard(shard):
            workload.stop_client(client_id)

    def kill(client_id: ClientId) -> None:
        workload.stop_client(client_id)
        engine.network.crash(client_id)
        engine.mark_dead(client_id)

    def revive(client_id: ClientId) -> None:
        engine.network.reconnect(client_id)
        engine.mark_alive(client_id)
        workload.resume_client(client_id)

    for window in plan.crashes:
        if window.is_shard:
            at(window.at_ms, partial(kill_shard, window.shard_index))
            if window.reconnect_at_ms is not None:
                at(
                    window.reconnect_at_ms,
                    partial(engine.restart_shard, window.shard_index),
                )
        else:
            at(window.at_ms, partial(kill, window.client_id))
            if window.reconnect_at_ms is not None:
                at(window.reconnect_at_ms, partial(revive, window.client_id))
