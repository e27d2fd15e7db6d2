"""Unit tests for the link and network models."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.net.link import Link
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.types import SERVER_ID


# ---------------------------------------------------------------------------
# Link
# ---------------------------------------------------------------------------
def test_latency_only_delivery(sim):
    link = Link(sim, 0, 1, latency_ms=50.0)
    arrivals = []
    link.transmit(100, lambda tag: arrivals.append(sim.now), None)
    sim.run()
    assert arrivals == [50.0]


def test_serialization_delay_adds_to_latency(sim):
    # 1000 bytes at 100 kbps = 8000 bits / 100000 bps = 80 ms on the wire.
    link = Link(sim, 0, 1, latency_ms=50.0, bandwidth_bps=100_000)
    arrivals = []
    link.transmit(1000, lambda tag: arrivals.append(sim.now), None)
    sim.run()
    assert arrivals == [pytest.approx(130.0)]


def test_messages_queue_behind_each_other(sim):
    link = Link(sim, 0, 1, latency_ms=0.0, bandwidth_bps=100_000)
    arrivals = []
    link.transmit(1000, lambda tag: arrivals.append((tag, sim.now)), "a")
    link.transmit(1000, lambda tag: arrivals.append((tag, sim.now)), "b")
    sim.run()
    assert arrivals == [("a", pytest.approx(80.0)), ("b", pytest.approx(160.0))]


def test_fifo_even_with_mixed_sizes(sim):
    link = Link(sim, 0, 1, latency_ms=10.0, bandwidth_bps=100_000)
    arrivals = []
    link.transmit(5000, arrivals.append, "big")
    link.transmit(10, arrivals.append, "small")
    sim.run()
    assert arrivals == ["big", "small"]


def test_infinite_bandwidth_no_serialization(sim):
    link = Link(sim, 0, 1, latency_ms=5.0, bandwidth_bps=None)
    assert link.serialization_delay(10**9) == 0.0


def test_queue_delay_reflects_backlog(sim):
    link = Link(sim, 0, 1, latency_ms=0.0, bandwidth_bps=100_000)
    link.transmit(1000, id, None)
    assert link.queue_delay() == pytest.approx(80.0)


def test_negative_latency_rejected(sim):
    with pytest.raises(NetworkError):
        Link(sim, 0, 1, latency_ms=-1.0)


def test_negative_size_rejected(sim):
    link = Link(sim, 0, 1, latency_ms=1.0)
    with pytest.raises(NetworkError):
        link.transmit(-5, id, None)


def test_delivery_counter(sim):
    link = Link(sim, 0, 1, latency_ms=1.0)
    link.transmit(1, id, None)
    link.transmit(1, id, None)
    sim.run()
    assert link.delivered == 2
    assert link.in_flight == 0


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------
def test_send_client_to_server(sim):
    net = Network(sim, rtt_ms=100.0)
    received = []
    net.register(SERVER_ID, lambda src, msg: received.append((src, msg, sim.now)))
    net.register(0, lambda src, msg: None)
    net.send(0, SERVER_ID, "hello", 10)
    sim.run()
    assert received == [(0, "hello", 50.0)]  # one-way = RTT / 2


def test_round_trip_takes_rtt(sim):
    net = Network(sim, rtt_ms=100.0)
    done = []
    net.register(SERVER_ID, lambda src, msg: net.send(SERVER_ID, src, "pong", 10))
    net.register(0, lambda src, msg: done.append(sim.now))
    net.send(0, SERVER_ID, "ping", 10)
    sim.run()
    assert done == [pytest.approx(100.0)]


def test_duplicate_registration_rejected(sim):
    net = Network(sim, rtt_ms=10.0)
    net.register(0, lambda src, msg: None)
    with pytest.raises(NetworkError):
        net.register(0, lambda src, msg: None)


def test_unregistered_sender_rejected(sim):
    net = Network(sim, rtt_ms=10.0)
    net.register(SERVER_ID, lambda src, msg: None)
    with pytest.raises(NetworkError):
        net.send(0, SERVER_ID, "x", 1)


def test_message_to_departed_host_dropped_silently(sim):
    net = Network(sim, rtt_ms=10.0)
    net.register(SERVER_ID, lambda src, msg: None)
    received = []
    net.register(0, lambda src, msg: received.append(msg))
    net.send(SERVER_ID, 0, "x", 1)
    net.unregister(0)
    sim.run()
    assert received == []


def test_traffic_metered_per_message(sim):
    net = Network(sim, rtt_ms=10.0)
    net.register(SERVER_ID, lambda src, msg: None)
    net.register(0, lambda src, msg: None)
    net.send(0, SERVER_ID, "a", 100)
    net.send(SERVER_ID, 0, "b", 200)
    assert net.meter.total_bytes == 300
    assert net.meter.total_messages == 2
    assert net.meter.bytes_sent[0] == 100
    assert net.meter.bytes_received[0] == 200
    assert net.meter.host_bytes(0) == 300


def test_broadcast_meters_every_destination(sim):
    net = Network(sim, rtt_ms=10.0)
    net.register(SERVER_ID, lambda src, msg: None)
    received = []
    for cid in range(3):
        net.register(cid, lambda src, msg, cid=cid: received.append(cid))
    net.broadcast_from_server("x", 50)
    sim.run()
    assert sorted(received) == [0, 1, 2]
    assert net.meter.total_bytes == 150


def test_broadcast_exclude(sim):
    net = Network(sim, rtt_ms=10.0)
    net.register(SERVER_ID, lambda src, msg: None)
    received = []
    for cid in range(3):
        net.register(cid, lambda src, msg, cid=cid: received.append(cid))
    net.broadcast_from_server("x", 50, exclude=1)
    sim.run()
    assert sorted(received) == [0, 2]


def test_per_client_bandwidth_is_independent(sim):
    # Two clients each push 1000 bytes; with per-client 100 kbps uplinks
    # they serialize in parallel and both arrive at 80ms + latency.
    net = Network(sim, rtt_ms=0.0, bandwidth_bps=100_000)
    arrivals = []
    net.register(SERVER_ID, lambda src, msg: arrivals.append((src, sim.now)))
    net.register(0, lambda src, msg: None)
    net.register(1, lambda src, msg: None)
    net.send(0, SERVER_ID, "a", 1000)
    net.send(1, SERVER_ID, "b", 1000)
    sim.run()
    assert arrivals == [(0, pytest.approx(80.0)), (1, pytest.approx(80.0))]


def test_link_lookup_missing_raises(sim):
    net = Network(sim, rtt_ms=10.0)
    net.register(SERVER_ID, lambda src, msg: None)
    with pytest.raises(NetworkError):
        net.link(0, SERVER_ID)


def test_hosts_listing(sim):
    net = Network(sim, rtt_ms=10.0)
    net.register(SERVER_ID, lambda src, msg: None)
    net.register(3, lambda src, msg: None)
    assert sorted(net.hosts) == [SERVER_ID, 3]


def test_diverted_send_consults_perturb_like_a_local_one(sim):
    # A send whose destination another partition owns goes through the
    # same decisions as a local one; only its last step hands the
    # arrival to the sink instead of scheduling a delivery.
    network = Network(sim, rtt_ms=100.0)
    network.register(SERVER_ID, lambda src, payload: None)
    delivered = []
    network.register(0, lambda src, payload: delivered.append(sim.now))
    network.register(1, lambda src, payload: None)
    seen, diverted = [], []
    network.perturb = lambda src, dst, payload, now: seen.append(dst) or 7.0
    network.remote_hosts = frozenset({1})
    network.remote_sink = lambda *message: diverted.append(message)

    local_arrival = network.send(SERVER_ID, 0, "hello", 10)
    remote_arrival = network.send(SERVER_ID, 1, "hello", 10)
    sim.run()

    assert seen == [0, 1]
    assert local_arrival == remote_arrival == 57.0
    assert delivered == [57.0]
    assert diverted == [(SERVER_ID, 1, "hello", 10, 57.0, False, 0)]
    assert network.link(SERVER_ID, 1).delivered == 0
