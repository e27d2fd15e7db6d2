"""The machinery that survives the fault plan: the network's ARQ
transport, crash/reconnect semantics, heartbeat liveness eviction, and
the Section III-C orphan-abort rule (server-side ActionId idempotency
is a front-door rule: tests/test_front_door.py).
"""

from __future__ import annotations

import pytest

from repro.baselines.central import CentralEngine
from repro.baselines.common import BaselineConfig
from repro.core.chassis import ClientShell
from repro.core.engine import SeveConfig, SeveEngine
from repro.core.sharded import ShardedSeveEngine, ShardingConfig
from repro.errors import NetworkError
from repro.harness.architectures import build_engine, build_world
from repro.harness.config import SimulationSettings
from repro.net.faults import CrashWindow, FaultInjector, FaultPlan, Partition
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.types import SERVER_ID
from repro.world.manhattan import ManhattanConfig, ManhattanWorld


def make_network(plan=FaultPlan()):
    """A 100 ms network (ARQ timeout 300 ms, capped at 2 400 ms).

    Any plan arms the ARQ transport, a null one without drawing a fault;
    ``plan=None`` is the fault-free network with no ARQ."""
    sim = Simulator()
    injector = FaultInjector(plan) if plan is not None else None
    net = Network(sim, rtt_ms=100.0, bandwidth_bps=None, faults=injector)
    return sim, net


# ---------------------------------------------------------------------------
# ARQ transport
# ---------------------------------------------------------------------------
def test_arq_recovers_loss_in_order_exactly_once():
    sim, net = make_network(FaultPlan(loss_rate=0.3, seed=2))
    received = []
    net.register(SERVER_ID, lambda src, payload: received.append(payload))
    net.register(0, lambda src, payload: None)
    for n in range(50):
        net.send(0, SERVER_ID, n, 100)
    sim.run()
    assert received == list(range(50))
    assert net.meter.retransmissions > 0
    assert net.meter.messages_dropped > 0


def test_arq_dedups_wire_duplicates():
    sim, net = make_network(FaultPlan(duplicate_rate=0.5, seed=3))
    received = []
    net.register(SERVER_ID, lambda src, payload: received.append(payload))
    net.register(0, lambda src, payload: None)
    for n in range(40):
        net.send(0, SERVER_ID, n, 100)
    sim.run()
    assert received == list(range(40))
    assert net.meter.messages_duplicated > 0


def test_arq_survives_loss_and_jitter_together():
    sim, net = make_network(
        FaultPlan(loss_rate=0.2, jitter_ms=80.0, duplicate_rate=0.1, seed=4)
    )
    received = []
    net.register(SERVER_ID, lambda src, payload: received.append(payload))
    net.register(0, lambda src, payload: None)
    for n in range(60):
        net.send(0, SERVER_ID, n, 100)
    sim.run()
    assert received == list(range(60))


def test_arq_gives_up_and_drains_under_total_blackout():
    """A sender facing a permanently severed destination must abandon
    its packets after its last retransmission, not retransmit forever
    (the event queue has to empty for the simulation to terminate)."""
    plan = FaultPlan(
        seed=5, partitions=(Partition(0.0, 10_000_000.0),)
    )
    sim, net = make_network(plan)
    received = []
    net.register(SERVER_ID, lambda src, payload: received.append(payload))
    net.register(0, lambda src, payload: None)
    for n in range(3):
        net.send(0, SERVER_ID, n, 100)
    sim.run()  # must terminate
    assert received == []
    assert net.meter.messages_abandoned == 3


def test_arq_header_and_ack_bytes_are_metered():
    sim, net = make_network()
    net.register(SERVER_ID, lambda src, payload: None)
    net.register(0, lambda src, payload: None)
    net.send(0, SERVER_ID, "x", 100)
    sim.run()
    # Data packet (100 + 8 header) uplink + 8-byte ACK downlink.
    assert net.meter.bytes_sent[0] == 108
    assert net.meter.bytes_sent[SERVER_ID] == 8


def test_unreliable_escape_hatch_skips_arq():
    sim, net = make_network()
    received = []
    net.register(SERVER_ID, lambda src, payload: received.append(payload))
    net.register(0, lambda src, payload: None)
    net.send(0, SERVER_ID, "beat", 8, reliable=False)
    sim.run()
    assert received == ["beat"]
    assert net.meter.bytes_sent[0] == 8  # no header, and no ACK came back
    assert net.meter.bytes_sent[SERVER_ID] == 0


# ---------------------------------------------------------------------------
# Crash / reconnect (the Network.detach regression)
# ---------------------------------------------------------------------------
def test_crash_cancels_inflight_deliveries_both_directions():
    """Killing a host with messages in flight both ways must not raise,
    must not hand payloads to a dead handler, and must take back the
    receive-side byte credit."""
    sim, net = make_network(None)
    inbox = []
    net.register(SERVER_ID, lambda src, payload: inbox.append(payload))
    net.register(0, lambda src, payload: inbox.append(payload))
    net.send(0, SERVER_ID, "up", 100)
    net.send(SERVER_ID, 0, "down", 100)
    net.crash(0)  # both messages still on the wire
    sim.run()
    assert inbox == ["up"]  # the uplink message outlives its sender
    assert net.meter.messages_undelivered == 1
    assert net.meter.bytes_received[0] == 0  # credit debited on cancel


def test_reconnect_restores_the_parked_handler():
    sim, net = make_network(None)
    inbox = []
    net.register(SERVER_ID, lambda src, payload: None)
    net.register(0, lambda src, payload: inbox.append(payload))
    net.crash(0)
    net.send(SERVER_ID, 0, "lost", 50)
    sim.run()
    assert inbox == []
    net.reconnect(0)
    net.send(SERVER_ID, 0, "found", 50)
    sim.run()
    assert inbox == ["found"]


def test_reconnect_drops_deliveries_sent_into_the_crash_window():
    """A message sent while the destination was down must NOT reach the
    revived handler, even when the reconnect lands before the scheduled
    arrival: the old incarnation's traffic is dead.  (Regression: a push
    batch built during a crash window — computed against bookkeeping the
    reconnect resync discards — used to slip through and poison the
    rejoiner's replica.)"""
    sim, net = make_network(None)
    inbox = []
    net.register(SERVER_ID, lambda src, payload: None)
    net.register(0, lambda src, payload: inbox.append(payload))
    net.crash(0)
    net.send(SERVER_ID, 0, "stale", 50)  # in flight toward the corpse
    net.reconnect(0)  # revived before the scheduled arrival
    sim.run()
    assert inbox == []
    assert net.meter.messages_undelivered == 1
    net.send(SERVER_ID, 0, "fresh", 50)
    sim.run()
    assert inbox == ["fresh"]


def test_crashed_sender_cannot_send():
    sim, net = make_network(None)
    net.register(SERVER_ID, lambda src, payload: None)
    net.register(0, lambda src, payload: None)
    net.crash(0)
    assert not net.is_registered(0)
    with pytest.raises(NetworkError):
        net.send(0, SERVER_ID, "x", 10)


def test_reconnect_without_crash_rejected():
    sim, net = make_network(None)
    net.register(0, lambda src, payload: None)
    with pytest.raises(NetworkError):
        net.reconnect(0)
    with pytest.raises(NetworkError):
        net.reconnect(7)  # never existed


def test_reliable_sends_to_crashed_host_build_no_channel_state():
    """Reliable traffic towards a crashed destination degrades to raw
    delivery (cancelled on arrival) instead of accumulating an ARQ
    backlog that would retransmit until give-up."""
    sim, net = make_network()
    net.register(SERVER_ID, lambda src, payload: None)
    net.register(0, lambda src, payload: None)
    net.crash(0)
    for n in range(10):
        net.send(SERVER_ID, 0, n, 100)
    sim.run()  # must terminate promptly
    assert net.meter.retransmissions == 0
    assert net.meter.messages_undelivered == 10


def test_arq_restarts_fresh_after_reconnect():
    sim, net = make_network()
    received = []
    net.register(SERVER_ID, lambda src, payload: received.append(payload))
    net.register(0, lambda src, payload: None)
    net.send(0, SERVER_ID, "before", 100)
    sim.run()
    net.crash(0)
    net.reconnect(0)
    net.send(0, SERVER_ID, "after", 100)
    sim.run()
    assert received == ["before", "after"]


# ---------------------------------------------------------------------------
# Liveness eviction (Section III-C)
# ---------------------------------------------------------------------------
def _tiny_world(n=3, seed=3):
    return ManhattanWorld(
        n,
        ManhattanConfig(width=150.0, height=150.0, num_walls=10,
                        spawn="cluster", spawn_extent=20.0, seed=seed),
    )


#: A plan whose one crash window arms the clients' heartbeats and the
#: server's liveness sweep (heartbeat 1 s, eviction after 5 s of
#: silence), besides the ARQ transport and resubmission any plan arms.
#: The engine schedules no crash from it: each test crashes client 0 by
#: hand.
LIVENESS = FaultPlan(crashes=(CrashWindow(0, 1_000.0),))


def test_silent_client_is_evicted_and_gcd_from_indexes():
    world = _tiny_world()
    engine = SeveEngine(
        world, 3,
        SeveConfig(mode="seve", rtt_ms=50.0, tick_ms=20.0,
                   fault_tolerant=True, fault_plan=LIVENESS),
    )
    engine.start(stop_at=15_000.0)

    def kill():
        engine.network.crash(0)
        engine.mark_dead(0)

    engine.sim.schedule(1_000.0, kill)
    engine.run(until=10_000.0)
    assert engine.server.stats.clients_evicted == 1
    assert 0 not in engine.server.clients
    assert 0 not in engine.live_client_ids()
    assert set(engine.live_client_ids()) == {1, 2}
    # The liveness clock no longer tracks the corpse.
    assert 0 not in getattr(engine.server, "_last_heard")


def test_chatty_clients_are_not_evicted():
    world = _tiny_world()
    engine = SeveEngine(
        world, 3,
        SeveConfig(mode="seve", rtt_ms=50.0, tick_ms=20.0,
                   fault_plan=LIVENESS),
    )
    engine.start(stop_at=10_000.0)
    engine.run(until=9_000.0)  # heartbeats flow, nobody dies
    assert engine.server.stats.clients_evicted == 0
    assert set(engine.live_client_ids()) == {0, 1, 2}


def test_reconnected_client_is_reattached():
    world = _tiny_world()
    engine = SeveEngine(
        world, 3,
        SeveConfig(mode="seve", rtt_ms=50.0, tick_ms=20.0,
                   fault_tolerant=True, fault_plan=LIVENESS),
    )
    engine.start(stop_at=20_000.0)

    def kill():
        engine.network.crash(0)
        engine.mark_dead(0)

    def revive():
        engine.network.reconnect(0)
        engine.mark_alive(0)

    engine.sim.schedule(1_000.0, kill)
    engine.sim.schedule(8_000.0, revive)  # well past the eviction
    engine.run(until=15_000.0)
    assert engine.server.stats.clients_evicted == 1
    assert 0 in engine.server.clients  # re-attached on return
    assert 0 in engine.live_client_ids()


# ---------------------------------------------------------------------------
# Orphan abort: the Section III-C rule
# ---------------------------------------------------------------------------
def test_orphaned_action_aborted_when_all_holders_dead():
    """An uncommitted action whose originator died *before anyone else
    received it* may be treated as never submitted — the exact rule of
    Section III-C — which unsticks the commit frontier."""
    world = ManhattanWorld(
        2,
        ManhattanConfig(width=1000.0, height=1000.0, num_walls=0,
                        spawn="grid", spawn_spacing=800.0, seed=1),
    )
    engine = SeveEngine(
        world, 2,
        SeveConfig(mode="seve", rtt_ms=50.0, tick_ms=20.0,
                   fault_plan=LIVENESS),
    )
    engine.start(stop_at=20_000.0)
    victim = engine.client(0)
    victim.submit(world.plan_move(
        victim.optimistic, 0, victim.next_action_id(), cost_ms=1.0
    ))

    # Die before the serialized echo returns: the victim never sends its
    # completion, and nobody else ever received the entry.
    def kill():
        engine.network.crash(0)
        engine.mark_dead(0)

    engine.sim.schedule(30.0, kill)
    engine.run(until=15_000.0)
    assert engine.server.stats.clients_evicted == 1
    assert engine.server.stats.orphans_aborted >= 1
    assert engine.server.uncommitted_count == 0


def test_action_with_live_holder_is_never_aborted():
    """The rule's other half: while ANY client that received the action
    survives, aborting would diverge from a replica that may already
    have applied it — so the entry must stay."""
    world = _tiny_world(2)  # clients adjacent: the entry reaches client 1
    engine = SeveEngine(
        world, 2,
        SeveConfig(mode="seve", rtt_ms=50.0, tick_ms=20.0,
                   fault_plan=LIVENESS),
    )
    engine.start(stop_at=20_000.0)
    victim = engine.client(0)
    victim.submit(world.plan_move(
        victim.optimistic, 0, victim.next_action_id(), cost_ms=1.0
    ))

    # Die only after the push cycle has delivered the entry to client 1.
    def kill():
        engine.network.crash(0)
        engine.mark_dead(0)

    engine.sim.schedule(2_000.0, kill)
    engine.run(until=15_000.0)
    assert engine.server.stats.clients_evicted == 1
    assert engine.server.stats.orphans_aborted == 0


# ---------------------------------------------------------------------------
# The stack follows from the plan, however the engine is built
# ---------------------------------------------------------------------------
STACK_SETTINGS = SimulationSettings(
    num_clients=4, num_walls=10, world_width=300.0, world_height=300.0,
    spawn_extent=300.0, rtt_ms=100.0, seed=5,
)

#: Plan -> what it arms: (ARQ, client resubmission, heartbeats, liveness
#: sweep, a gsn lease that fails over).
STACK_PLANS = {
    "no-plan": (None, (False, False, False, False, False)),
    "null-plan": (FaultPlan(seed=3), (False, False, False, False, False)),
    "lossy": (FaultPlan(loss_rate=0.05, seed=3), (True, True, False, False, False)),
    "client-crash": (
        FaultPlan(seed=3, crashes=(CrashWindow(1, 400.0, 1_200.0),)),
        (True, True, True, True, False),
    ),
    "shard-crash": (
        FaultPlan(seed=3, crashes=(CrashWindow(-1, 400.0, 1_200.0, shard_index=1),)),
        (True, True, True, True, True),
    ),
}


def _direct_engine(kind, plan):
    """The engine built by hand from a config that carries only ``plan``."""
    world = build_world(STACK_SETTINGS)
    clients = STACK_SETTINGS.num_clients
    if kind == "central":
        return CentralEngine(world, clients, BaselineConfig(fault_plan=plan))
    config = SeveConfig(fault_plan=plan)
    if kind == "sharded":
        return ShardedSeveEngine(
            world, clients, config,
            sharding=ShardingConfig(shards=2, world_width=STACK_SETTINGS.world_width),
        )
    return SeveEngine(world, clients, config)


def _cli_engine(kind, plan):
    """The engine a CLI run with ``plan`` builds."""
    architecture = "central" if kind == "central" else "seve"
    shards = 2 if kind == "sharded" else 1
    return build_engine(
        architecture, STACK_SETTINGS.with_(fault_plan=plan, shards=shards)
    )


def _armed(engine, monkeypatch):
    """What of the fault-tolerance stack ``engine`` runs, as ordered in
    :data:`STACK_PLANS`."""
    beats = []
    monkeypatch.setattr(ClientShell, "send_heartbeat", lambda client: beats.append(client))
    engine.start(stop_at=2_000.0)
    client = engine.clients[0]
    replica = getattr(client, "optimistic", client.stable)
    client.submit(engine.world.plan_move(replica, 0, client.next_action_id(), cost_ms=1.0))
    resubmits = bool(client._retry_timers)
    engine.run(until=1_500.0)
    servers = engine._servers()
    leases = [server.lease.start() for server in servers if hasattr(server, "lease")]
    return (
        engine.network.rto_ms is not None,
        resubmits,
        bool(beats),
        all(server.liveness for server in servers),
        any(leases),
    )


@pytest.mark.parametrize(
    "kind, plan_name",
    [
        (kind, name)
        for kind in ("seve", "central", "sharded")
        for name in STACK_PLANS
        if kind == "sharded" or name != "shard-crash"
    ],
)
def test_the_fault_tolerance_stack_follows_from_the_plan(kind, plan_name, monkeypatch):
    """An engine built directly from a config that carries only a fault
    plan arms what a CLI run with that plan arms: a lossy plan the ARQ
    transport and resubmission, a crash window heartbeats, the sweep and
    fault-tolerant completions too, a shard crash window a lease that
    fails over; no plan or a null plan none of these."""
    plan, expected = STACK_PLANS[plan_name]
    for engine in (_direct_engine(kind, plan), _cli_engine(kind, plan)):
        assert _armed(engine, monkeypatch) == expected
        if kind != "central":  # a baseline commits at its server
            crash_windows = expected[2]
            assert engine.clients[0].config.report_all_completions == crash_windows
