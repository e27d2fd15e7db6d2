"""Tests for the hybrid P2P/client-server distribution (§VII future
work): relay grouping, egress savings, latency cost, failure fallback,
and unchanged consistency."""

from __future__ import annotations

from repro.core.engine import SeveConfig, SeveEngine
from repro.metrics.consistency import ConsistencyChecker
from repro.types import SERVER_ID
from repro.world.manhattan import ManhattanConfig, ManhattanWorld


def build(mode, num_clients=8, seed=9):
    world = ManhattanWorld(
        num_clients,
        ManhattanConfig(width=200.0, height=200.0, num_walls=30,
                        spawn="cluster", spawn_extent=40.0, seed=seed),
    )
    engine = SeveEngine(
        world, num_clients,
        SeveConfig(mode=mode, rtt_ms=100.0, tick_ms=20.0),
    )
    engine.start(stop_at=60_000)
    return world, engine


def drive(world, engine, moves=6, interval=200.0):
    for cid in engine.clients:
        client = engine.client(cid)

        def submit(cid=cid, client=client, n={"left": moves}):
            if n["left"] <= 0:
                return
            n["left"] -= 1
            client.submit(world.plan_move(
                client.optimistic, cid, client.next_action_id(), cost_ms=1.0
            ))

        engine.sim.call_every(interval, submit, start_delay=4.0 + cid,
                              stop_at=interval * (moves + 2))
    engine.run(until=interval * (moves + 2))
    engine.run_to_quiescence()


def test_relay_head_assignment():
    world, engine = build("hybrid", num_clients=8)
    server = engine.server
    # Groups are spatial, so membership is data-driven; the invariants:
    # every client belongs to exactly one group of <= 4 mutually
    # consistent members, the first member heads it, and heads have no
    # relay head of their own.
    seen = set()
    for cid in range(8):
        group = server.group_of(cid)
        assert cid in group
        assert 1 <= len(group) <= 4
        head = group[0]
        if cid == head:
            assert server.relay_head_for(cid) is None
        else:
            assert server.relay_head_for(cid) == head
        seen.add(tuple(group))
    assert server.relay_head_for(99) is None
    # Groups partition the population.
    assert sum(len(g) for g in seen) == 8


def test_hybrid_confirms_everything_and_stays_consistent():
    world, engine = build("hybrid")
    drive(world, engine)
    for client in engine.clients.values():
        assert client.stats.confirmed + client.stats.aborted == 6
    report = ConsistencyChecker(engine.state).check_all(
        {cid: c.stable for cid, c in engine.clients.items()}
    )
    assert report.consistent, report.violations[:3]
    assert engine.server.hybrid_stats.bundles_sent > 0


def test_hybrid_reduces_server_egress():
    world_p, plain = build("seve", seed=9)
    drive(world_p, plain)
    world_h, hybrid = build("hybrid", seed=9)
    drive(world_h, hybrid)
    plain_egress = plain.network.meter.bytes_sent[SERVER_ID]
    hybrid_egress = hybrid.network.meter.bytes_sent[SERVER_ID]
    assert hybrid_egress < plain_egress
    # Totals are comparable: the bytes moved to peer links, not away.
    assert hybrid.network.meter.total_bytes > hybrid_egress


def test_hybrid_latency_cost_is_ordered():
    """The egress saving is paid in latency: heads wait for the larger
    bundle to serialize; members additionally pay the peer hop (one-way
    latency plus the head's uplink serialization)."""
    world_p, plain = build("seve", seed=9)
    drive(world_p, plain)
    world_h, hybrid = build("hybrid", seed=9)
    drive(world_h, hybrid)
    plain_mean = plain.response_times.summary().mean
    heads = {hybrid.server.group_of(cid)[0] for cid in hybrid.clients}
    head_mean = min(
        hybrid.response_times.client_summary(cid).mean for cid in heads
    )
    member_mean = max(
        hybrid.response_times.client_summary(cid).mean
        for cid in hybrid.clients
        if cid not in heads
    )
    assert plain_mean < head_mean < member_mean
    # The slowest member's surcharge over the fastest head covers at
    # least the one-way peer-hop latency (50ms at RTT 100).
    assert member_mean - head_mean >= 40.0


def test_dead_head_falls_back_to_direct():
    world, engine = build("hybrid", num_clients=4)
    # Kill the head before anyone acts.
    engine.network.unregister(0)
    engine.server.detach_client(0)
    client = engine.client(1)
    client.submit(world.plan_move(
        client.optimistic, 1, client.next_action_id(), cost_ms=1.0
    ))
    engine.run(until=2_000)
    engine.run_to_quiescence()
    # With the head gone, member 1 is served directly and still confirms.
    assert client.stats.confirmed == 1
    assert engine.server.relay_head_for(1) is None  # 1 is the new head
