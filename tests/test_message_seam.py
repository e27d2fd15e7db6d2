"""The servers' one message seam (docs/sharding.md, "The peer seam"):
the dispatch tables are total over the protocol, an unknown payload ends
in one typed error, conservation-group messages are counted exactly
where they cross the seam, and a crashed server handles nothing.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.protocol import analyze_paths
from repro.core.control_plane import GsnLease
from repro.core.hybrid import HybridRelayServer
from repro.core.messages import (
    CONSERVATION_GROUPS,
    ENVELOPED_MESSAGES,
    PROTOCOL_MESSAGES,
    WIRE_SPECS,
    ActionBatch,
    ShardHello,
    SpanAbort,
)
from repro.core.server_incomplete import IncompleteWorldServer
from repro.core.sharded import ShardServer
from repro.errors import ProtocolError
from repro.harness.architectures import build_engine
from repro.harness.config import SimulationSettings
from repro.types import shard_host_id
from tests.test_codec import MESSAGES

REPO = Path(__file__).resolve().parent.parent
SETTINGS = SimulationSettings(num_clients=4, num_walls=0, moves_per_client=2, seed=5)
ELASTIC_K2 = SETTINGS.with_(shards=2, elastic=True)

#: One sample instance per message class (the codec's round-trip set).
SAMPLE = {type(message): message for message in MESSAGES}
ELASTIC_GROUP = CONSERVATION_GROUPS["elastic"]

#: The tables, and the modules whose handlers are ``isinstance`` chains
#: the analyzer still reads.
SERVER_TABLES = (ShardServer.HANDLERS, GsnLease.HANDLERS)
CHAIN_MODULES = ("core/client.py", "core/server_basic.py", "baselines/", "net/")


def test_every_protocol_message_has_a_table_entry_or_a_surviving_chain():
    """The runtime twin of ``protocol-orphan``: adding a message without
    registering a handler fails here."""
    entries = Counter(kind for table in SERVER_TABLES for kind in table)
    model = analyze_paths(
        [REPO / "src/repro" / p for p in ("core", "net", "baselines")], root=REPO
    )
    for message in PROTOCOL_MESSAGES:
        if message in ENVELOPED_MESSAGES:
            continue
        if message in entries:
            assert entries[message] == 1, message.__name__
            continue
        sites = [path for path, _ in model.flows[message.__name__].handlers]
        assert sites, f"{message.__name__} has no handler anywhere"
        assert all(
            any(module in path for module in CHAIN_MODULES) for path in sites
        ), (message.__name__, sites)


def test_a_shard_servers_table_is_its_class_table_plus_the_leases():
    assert set(IncompleteWorldServer.HANDLERS) < set(ShardServer.HANDLERS)
    assert HybridRelayServer.HANDLERS is IncompleteWorldServer.HANDLERS
    server = build_engine("seve", ELASTIC_K2).shard_servers[1]
    assert set(server._handlers) == set(ShardServer.HANDLERS) | set(
        GsnLease.HANDLERS
    )
    assert len(server._handlers) == 20
    for kind, handler in server._handlers.items():
        owner = server.lease if kind in GsnLease.HANDLERS else server
        assert handler.__self__ is owner, kind.__name__


@pytest.mark.parametrize(
    "architecture, settings, server_type",
    [
        ("incomplete", SETTINGS, IncompleteWorldServer),
        ("seve-hybrid", SETTINGS, HybridRelayServer),
        ("seve", SETTINGS.with_(shards=2), ShardServer),
    ],
)
def test_an_unspecd_payload_ends_in_one_protocol_error(
    architecture, settings, server_type
):
    class Stray:
        pass

    server = build_engine(architecture, settings).server
    assert type(server) is server_type
    with pytest.raises(ProtocolError, match=f"{server_type.__name__}.*Stray"):
        server._on_message(0, Stray())
    # A message of the protocol this server has no table entry for is
    # the same error.
    stranger = ActionBatch if server_type is ShardServer else SpanAbort
    with pytest.raises(ProtocolError, match=stranger.__name__):
        server._on_message(0, SAMPLE[stranger])


def _round_trip(message):
    """One trip shard 0 -> shard 1 through ``_send_peer`` and shard 1's
    dispatcher, the handler swapped for a recorder (the seam is under
    test, not the handler)."""
    engine = build_engine("seve", ELASTIC_K2)
    sender, receiver = engine.shard_servers
    seen = []
    receiver._handlers[type(message)] = lambda src, m: seen.append((src, m))
    sender._send_peer(1, message)
    engine.sim.run()
    assert seen == [(shard_host_id(0), message)]
    return sender, receiver


@pytest.mark.parametrize("kind", ELASTIC_GROUP, ids=lambda kind: kind.__name__)
def test_a_group_message_is_counted_once_on_each_side_of_the_seam(kind):
    assert WIRE_SPECS[kind].group == "elastic"
    sender, receiver = _round_trip(SAMPLE[kind])
    assert (sender.elastic_sent, sender.elastic_received) == (1, 0)
    assert (receiver.elastic_sent, receiver.elastic_received) == (0, 1)


def test_the_elastic_group_is_the_five_rebalance_messages():
    assert sorted(kind.__name__ for kind in ELASTIC_GROUP) == [
        "DrainDone", "LoadReport", "PartitionCommit", "PartitionUpdate",
        "RegionSync",
    ]


def test_a_message_outside_every_group_moves_no_counter():
    for server in _round_trip(ShardHello(0)):
        assert (server.elastic_sent, server.elastic_received) == (0, 0)


def test_a_group_message_is_never_sent_to_a_shard_known_dead():
    """Nobody could count it back in: the books would never balance."""
    engine = build_engine("seve", ELASTIC_K2)
    sender = engine.shard_servers[0]
    sender.note_shard_down(1)
    before = engine.network.meter.total_messages
    sender._send_peer(1, SAMPLE[ELASTIC_GROUP[0]])
    assert sender.elastic_sent == 0
    assert engine.network.meter.total_messages == before


def test_a_crashed_shard_server_ignores_every_table_entry():
    engine = build_engine("seve", ELASTIC_K2)
    server = engine.shard_servers[1]
    called = []
    for kind in list(server._handlers):
        server._handlers[kind] = lambda src, m: called.append(m)
    server.crash()
    for kind in list(server._handlers):
        server._on_message(shard_host_id(0), SAMPLE[kind])
    server._on_message(shard_host_id(0), object())  # not even an error
    assert called == []
    assert server.elastic_received == 0
