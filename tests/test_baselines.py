"""Integration tests for the Central, Broadcast and RING baselines, and
for the fan-out every relay baseline shares."""

from __future__ import annotations

import pytest

from repro.baselines.broadcast import BroadcastEngine
from repro.baselines.central import CentralEngine
from repro.baselines.common import BaselineConfig
from repro.baselines.ring import RingEngine
from repro.core.action import ActionId
from repro.errors import ProtocolError
from repro.harness.architectures import build_engine
from repro.harness.config import SimulationSettings
from repro.world.manhattan import ManhattanConfig, ManhattanWorld


def make_world(num=4, **kwargs):
    defaults = dict(
        width=200.0, height=200.0, num_walls=10, spawn="cluster",
        spawn_extent=40.0, seed=11,
    )
    defaults.update(kwargs)
    return ManhattanWorld(num, ManhattanConfig(**defaults))


def config(**kwargs):
    defaults = dict(rtt_ms=100.0, bandwidth_bps=None)
    defaults.update(kwargs)
    return BaselineConfig(**defaults)


def drive(engine, world, moves=4, interval=150.0, cost=1.0):
    seqs = {cid: 0 for cid in engine.clients}

    def make_submitter(cid):
        remaining = {"n": moves}

        def submit():
            if remaining["n"] <= 0:
                return
            remaining["n"] -= 1
            action = world.plan_move(
                engine.planning_store(cid),
                cid,
                ActionId(cid, seqs[cid]),
                cost_ms=cost,
            )
            seqs[cid] += 1
            engine.submit(cid, action)

        return submit

    for cid in engine.clients:
        engine.sim.call_every(
            interval,
            make_submitter(cid),
            start_delay=3.0 + cid,
            stop_at=interval * (moves + 2),
        )
    engine.run(until=interval * (moves + 2))
    engine.run_to_quiescence()


# ---------------------------------------------------------------------------
# Central
# ---------------------------------------------------------------------------
def test_central_confirms_every_move():
    world = make_world()
    engine = CentralEngine(world, 4, config())
    drive(engine, world)
    assert engine.response_times.summary().count == 16
    assert engine.stats.actions_evaluated == 16


def test_central_response_is_one_round_trip_plus_eval():
    world = make_world(num=1)
    engine = CentralEngine(world, 1, config())
    drive(engine, world, moves=3)
    summary = engine.response_times.summary()
    # RTT 100 + eval (1 + 1.9 overhead) + install 0.1
    assert summary.mean == pytest.approx(103.0, abs=2.0)


def test_central_server_cpu_is_the_bottleneck():
    world = make_world(num=6)
    engine = CentralEngine(world, 6, config())
    drive(engine, world, cost=5.0)
    client_cpu = max(c.host.cpu_time_used for c in engine.clients.values())
    assert engine.server_host.cpu_time_used > client_cpu


def test_central_interest_radius_limits_updates():
    world = make_world(num=6, spawn_extent=150.0)
    wide = CentralEngine(world, 6, config(), interest_radius=None)
    drive(wide, world)
    world2 = make_world(num=6, spawn_extent=150.0)
    narrow = CentralEngine(world2, 6, config(), interest_radius=10.0)
    drive(narrow, world2)
    assert narrow.stats.updates_sent < wide.stats.updates_sent


def test_central_replicas_hold_only_committed_values():
    world = make_world()
    engine = CentralEngine(world, 4, config())
    drive(engine, world)
    from repro.metrics.consistency import ConsistencyChecker

    checker = ConsistencyChecker(engine.state)
    report = checker.check_all(
        {cid: c.store for cid, c in engine.clients.items()}
    )
    assert report.consistent


def test_central_rejects_unknown_messages():
    world = make_world(num=1)
    engine = CentralEngine(world, 1, config())
    engine.network.send(0, -1, "garbage", 10)
    with pytest.raises(ProtocolError):
        engine.run()


# ---------------------------------------------------------------------------
# Broadcast
# ---------------------------------------------------------------------------
def test_broadcast_everyone_evaluates_everything():
    world = make_world()
    engine = BroadcastEngine(world, 4, config())
    drive(engine, world)
    for client in engine.clients.values():
        assert client.evaluated == 16  # all 4x4 moves
    assert engine.stats.messages_sent == 64  # 16 actions x 4 clients


def test_broadcast_replicas_converge():
    world = make_world()
    engine = BroadcastEngine(world, 4, config())
    drive(engine, world)
    stores = [c.store for c in engine.clients.values()]
    for other in stores[1:]:
        assert stores[0].diff(other) == {}


def test_broadcast_traffic_quadratic_vs_central():
    moves, clients = 3, 6
    world = make_world(num=clients)
    broadcast = BroadcastEngine(world, clients, config())
    drive(broadcast, world, moves=moves)
    world2 = make_world(num=clients)
    central = CentralEngine(world2, clients, config(), interest_radius=30.0)
    drive(central, world2, moves=moves)
    assert (
        broadcast.network.meter.total_bytes
        > central.network.meter.total_bytes
    )


def test_broadcast_client_cpu_saturates_with_peers():
    world = make_world(num=8)
    engine = BroadcastEngine(world, 8, config())
    drive(engine, world, cost=5.0)
    # Each client evaluated 8x4 actions at ~6.9ms.
    for client in engine.clients.values():
        assert client.host.cpu_time_used == pytest.approx(32 * 6.9, rel=0.01)


# ---------------------------------------------------------------------------
# RING
# ---------------------------------------------------------------------------
def test_ring_filters_by_visibility():
    # Two clusters far apart: actions relayed only within a cluster.
    world = make_world(num=4, spawn_extent=190.0, seed=2)
    engine = RingEngine(world, 4, config(), visibility=20.0)
    drive(engine, world)
    assert engine.stats.messages_sent < engine.stats.actions_relayed * 4


def test_ring_originator_always_gets_echo():
    world = make_world(num=3, spawn_extent=190.0, seed=2)
    engine = RingEngine(world, 3, config(), visibility=1.0)
    drive(engine, world, moves=2)
    assert engine.response_times.summary().count == 6


def test_ring_server_tracks_positions():
    world = make_world(num=2)
    engine = RingEngine(world, 2, config(), visibility=30.0)
    drive(engine, world, moves=3)
    # Server replica advanced beyond the initial state for the movers.
    from repro.world.avatar import avatar_id, avatar_position

    initial = {o.oid: o for o in world.initial_objects()}
    moved = 0
    for cid in range(2):
        oid = avatar_id(cid)
        if avatar_position(engine.state.get(oid)) != avatar_position(initial[oid]):
            moved += 1
    assert moved >= 1


def test_ring_diverges_under_filtering():
    """The paper's core claim: visibility filtering loses consistency."""
    world = make_world(num=6, spawn_extent=150.0, seed=4)
    engine = RingEngine(world, 6, config(), visibility=15.0)
    drive(engine, world, moves=6)
    from repro.metrics.consistency import pairwise_divergence

    divergent = pairwise_divergence(
        {cid: c.store for cid, c in engine.clients.items()}
    )
    assert divergent, "expected replica divergence under visibility filtering"


# ----------------------------------------------------------------------
# The one fan-out, across all six relay baselines
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "architecture", ["central", "zoned", "broadcast", "ring", "locking", "timestamp"]
)
def test_an_evicted_client_receives_no_server_message(architecture):
    """Section III-C: a client the server evicted is presumed dead, so
    no fan-out reaches it, even while it is alive and near the actor."""
    settings = SimulationSettings(
        num_clients=3, num_walls=0, moves_per_client=0, spawn_extent=5.0, seed=3
    )
    engine = build_engine(architecture, settings)
    received = {client_id: [] for client_id in engine.clients}
    on_client_message = engine._on_client_message

    def recording(client, src, payload):
        received[client.client_id].append(type(payload).__name__)
        on_client_message(client, src, payload)

    engine._on_client_message = recording
    engine.server.evict_client(0)
    action = engine.world.plan_move(
        engine.planning_store(1), 1, ActionId(1, 0), cost_ms=1.0
    )
    engine.submit(1, action)
    engine.run_to_quiescence()
    assert engine.response_times.summary().count == 1
    assert received[0] == []
    assert received[2], "the attached bystander is in range of the actor"
