"""The servers' one message seam (docs/sharding.md, "The peer seam"):
the dispatch tables are total over the protocol, an unknown payload ends
in one typed error at every receiver, conservation-group messages are
counted exactly where they cross the seam, and a crashed server handles
nothing.

The protocol's shape is checked here, from the runtime registries
(docs/static_analysis.md, "Protocol shape"): ``protocol_findings`` runs
three rules over every dispatch table the ``repro`` package defines
(``tests/test_protocol_analysis.py`` tests the checker itself).
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.core.control_plane import GsnLease
from repro.core.elastic import Rebalancer
from repro.core.handoff import HandoffBarrier
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
from repro.core.spans import SpanPipeline
from repro.errors import ProtocolError
from repro.harness.architectures import build_engine
from repro.harness.config import SimulationSettings
from repro.types import SERVER_ID, shard_host_id
from tests.test_codec import MESSAGES

SETTINGS = SimulationSettings(num_clients=4, num_walls=0, moves_per_client=2, seed=5)
ELASTIC_K2 = SETTINGS.with_(shards=2, elastic=True)

#: One sample instance per message class (the codec's round-trip set).
SAMPLE = {type(message): message for message in MESSAGES}
ELASTIC_GROUP = CONSERVATION_GROUPS["elastic"]

#: A shard server's tables: its own and its units'.
SERVER_TABLES = (
    ShardServer.HANDLERS,
    GsnLease.HANDLERS,
    SpanPipeline.HANDLERS,
    Rebalancer.HANDLERS,
    HandoffBarrier.HANDLERS,
)
BASELINES = ("central", "broadcast", "ring", "locking", "timestamp", "zoned")

SOURCE = Path(repro.__file__).parent


def discover_tables():
    """Every dispatch table of the ``repro`` package: a dict held by a
    class attribute whose name ends in ``HANDLERS``, keyed
    ``(class, attribute)``."""
    tables = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != info.name:
                continue
            for name, table in vars(cls).items():
                if name.endswith("HANDLERS") and isinstance(table, dict):
                    tables[cls, name] = table
    return tables


def called_names():
    """The name of every bare-name call in ``src/repro`` outside
    ``core/messages.py`` (whose decoder builds every message): the one
    static part of the check."""
    names = set()
    for path in sorted(SOURCE.rglob("*.py")):
        if path != SOURCE / "core" / "messages.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    names.add(node.func.id)
    return names


def protocol_findings(tables, called):
    """``(rule, message)`` for each breach of the protocol's shape:

    * ``protocol-orphan`` — a message of the protocol, not enveloped,
      that no table handles;
    * ``protocol-unregistered`` — a table key with no wire spec, or an
      enveloped one (it never arrives on its own);
    * ``protocol-dead-handler`` — a table key nothing constructs.
    """
    handled = set().union(*tables.values())
    findings = [
        ("protocol-orphan", message.__name__)
        for message in PROTOCOL_MESSAGES
        if message not in handled and message not in ENVELOPED_MESSAGES
    ]
    for kind in sorted(handled, key=lambda kind: kind.__name__):
        if kind not in WIRE_SPECS or kind in ENVELOPED_MESSAGES:
            findings.append(("protocol-unregistered", kind.__name__))
        elif kind.__name__ not in called:
            findings.append(("protocol-dead-handler", kind.__name__))
    return findings


TABLES = discover_tables()
CALLED = called_names()


def test_every_protocol_message_has_a_table_entry():
    """The shipped tree breaks no rule of the protocol's shape: adding a
    message without a handler, a handler without a spec or a handler
    nothing sends fails here.  A shard server binds each of its
    messages once."""
    assert protocol_findings(TABLES, CALLED) == []
    entries = Counter(kind for table in SERVER_TABLES for kind in table)
    assert set(entries.values()) == {1}


def test_a_shard_servers_table_is_its_class_table_plus_the_leases():
    """Plus the span pipeline's, the rebalancer's and the handoff
    barrier's: each unit's messages are bound to it."""
    assert set(IncompleteWorldServer.HANDLERS) < set(ShardServer.HANDLERS)
    assert HybridRelayServer.HANDLERS is IncompleteWorldServer.HANDLERS
    server = build_engine("seve", ELASTIC_K2).shard_servers[1]
    assert set(server._handlers) == set().union(*SERVER_TABLES)
    assert len(server._handlers) == 20
    for kind, handler in server._handlers.items():
        owner = server
        if kind in GsnLease.HANDLERS:
            owner = server.lease
        elif kind in SpanPipeline.HANDLERS:
            owner = server.spans
        elif kind in Rebalancer.HANDLERS:
            owner = server.rebalancer
        elif kind in HandoffBarrier.HANDLERS:
            owner = server.handoff
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


@pytest.mark.parametrize(
    "architecture, side",
    [(arch, side) for arch in BASELINES for side in ("server", "client")]
    + [("seve-basic", "client")],
)
def test_a_message_no_table_lists_ends_in_one_protocol_error(architecture, side):
    """Every receiver outside the servers' seam — a baseline's server
    and client side, the protocol client — has the same rule: a message
    its table does not list is a ``ProtocolError`` naming the receiver
    and the message type."""

    class Stray:
        pass

    engine = build_engine(architecture, SETTINGS)
    if side == "server":
        src, receive = 0, engine.server._on_message
    else:
        src, receive = SERVER_ID, engine.network._handlers[0]
    receiver = "client 0" if architecture == "seve-basic" else type(engine).__name__
    for message in (Stray(), SAMPLE[SpanAbort]):
        name = type(message).__name__
        with pytest.raises(ProtocolError, match=f"{receiver}: unexpected.*{name}"):
            receive(src, message)


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
