"""Unit/integration tests for the Incomplete World server (Algorithms 5-6)
in reactive mode, plus commit-path and GC behaviour."""

from __future__ import annotations

import pytest

from repro.core.action import Action, ActionId, ActionResult, BlindWrite
from repro.core.messages import (
    ActionBatch,
    Completion,
    SubmitAction,
    wire_size,
)
from repro.core.server_basic import TIMESTAMP_MS
from repro.core.server_incomplete import CLOSURE_MS, IncompleteWorldServer
from repro.errors import ConfigurationError, ProtocolError
from repro.core.first_bound import FirstBoundPredicate
from repro.core.info_bound import InformationBound
from repro.net.host import Host
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.state.objects import WorldObject
from repro.state.versioned import VersionedStore
from repro.types import SERVER_ID


class Touch(Action):
    """Reads/writes a named object, declaring an extra read set."""

    def __init__(self, action_id, oid, extra_reads=(), value=1):
        super().__init__(
            action_id,
            reads=frozenset({oid}) | frozenset(extra_reads),
            writes=frozenset({oid}),
        )
        self.oid = oid
        self.value = value

    def compute(self, store):
        return {self.oid: {"v": self.value}}


class Rig:
    """Reactive-mode incomplete server with scripted clients."""

    def __init__(self, clients=(0, 1)):
        self.sim = Simulator()
        self.network = Network(self.sim, rtt_ms=100.0)
        self.state = VersionedStore(
            [WorldObject(f"o:{i}", {"v": 0}) for i in range(4)]
        )
        self.server = IncompleteWorldServer(
            self.sim,
            self.network,
            Host(self.sim, SERVER_ID),
            self.state,
        )
        self.inboxes = {}
        for cid in clients:
            self.inboxes[cid] = []
            self.network.register(
                cid, lambda src, msg, cid=cid: self.inboxes[cid].append(msg)
            )
            self.server.attach_client(cid)
        self._seq = 0

    def submit(self, client_id, oid, extra_reads=(), value=1):
        action = Touch(ActionId(client_id, self._seq), oid, extra_reads, value)
        self._seq += 1
        message = SubmitAction(action)
        self.network.send(client_id, SERVER_ID, message, wire_size(message))
        self.sim.run()
        return action

    def complete(self, client_id, pos, action, values=None):
        result = ActionResult.of(
            values if values is not None else {action.oid: {"v": action.value}}
        )
        message = Completion(pos, action.action_id, result, reporter=client_id)
        self.network.send(client_id, SERVER_ID, message, wire_size(message))
        self.sim.run()

    def last_batch(self, client_id) -> ActionBatch:
        batches = [m for m in self.inboxes[client_id] if isinstance(m, ActionBatch)]
        return batches[-1]


def test_info_bound_requires_push_mode():
    sim = Simulator()
    network = Network(sim, rtt_ms=10.0)
    with pytest.raises(ConfigurationError):
        IncompleteWorldServer(
            sim,
            network,
            Host(sim, SERVER_ID),
            VersionedStore(),
            predicate=None,
            info_bound=InformationBound(10.0),
        )


def test_reply_contains_blind_write_then_action():
    rig = Rig()
    action = rig.submit(0, "o:0")
    batch = rig.last_batch(0)
    assert len(batch.entries) == 2
    blind, own = batch.entries
    assert blind.pos == -1
    assert isinstance(blind.action, BlindWrite)
    assert blind.action.values() == {"o:0": {"v": 0}}
    assert own.pos == 0
    assert own.action is action


def test_second_reply_skips_known_seed():
    rig = Rig()
    first = rig.submit(0, "o:0")
    rig.complete(0, 0, first)
    rig.submit(0, "o:0")
    batch = rig.last_batch(0)
    # Client already holds o:0 at the committed version it produced.
    assert len(batch.entries) == 1
    assert batch.entries[0].pos == 1


def test_closure_ships_conflicting_uncommitted_action():
    rig = Rig()
    first = rig.submit(0, "o:0")  # uncommitted writer of o:0
    rig.submit(1, "o:1", extra_reads=("o:0",))
    batch = rig.last_batch(1)
    positions = [entry.pos for entry in batch.entries]
    # Blind write, then first (pos 0), then own (pos 1).
    assert positions == [-1, 0, 1]
    assert batch.entries[1].action is first


def test_unrelated_action_not_shipped():
    rig = Rig()
    rig.submit(0, "o:0")
    rig.submit(1, "o:1")
    batch = rig.last_batch(1)
    positions = [entry.pos for entry in batch.entries]
    assert positions == [-1, 1]


def test_commit_installs_in_order_and_gcs():
    rig = Rig()
    first = rig.submit(0, "o:0", value=5)
    second = rig.submit(1, "o:1", value=7)
    assert rig.server.uncommitted_count == 2
    # Completing the second first must hold installation.
    rig.complete(1, 1, second)
    assert rig.server.commit_frontier == -1
    assert rig.state.get("o:1")["v"] == 0
    rig.complete(0, 0, first)
    assert rig.server.commit_frontier == 1
    assert rig.state.get("o:0")["v"] == 5
    assert rig.state.get("o:1")["v"] == 7
    assert rig.server.uncommitted_count == 0
    assert rig.server.stats.actions_committed == 2


def test_duplicate_completion_below_frontier_ignored():
    rig = Rig()
    first = rig.submit(0, "o:0", value=5)
    rig.complete(0, 0, first)
    rig.complete(1, 0, first)  # late duplicate from another reporter
    assert rig.server.commit_frontier == 0


def test_completion_for_unknown_position_raises():
    rig = Rig()
    action = rig.submit(0, "o:0")
    message = Completion(99, action.action_id, ActionResult.of({}), reporter=0)
    rig.network.send(0, SERVER_ID, message, 10)
    with pytest.raises(ProtocolError):
        rig.sim.run()


def test_completion_id_mismatch_raises():
    rig = Rig()
    rig.submit(0, "o:0")
    message = Completion(0, ActionId(0, 999), ActionResult.of({}), reporter=0)
    rig.network.send(0, SERVER_ID, message, 10)
    with pytest.raises(ProtocolError):
        rig.sim.run()


def test_batches_piggyback_commit_frontier():
    rig = Rig()
    first = rig.submit(0, "o:0")
    rig.complete(0, 0, first)
    rig.submit(0, "o:1")
    assert rig.last_batch(0).last_installed == 0


def test_detach_client_forgets_known_values():
    rig = Rig()
    first = rig.submit(0, "o:0")
    rig.complete(0, 0, first)
    rig.server.detach_client(0)
    rig.server.attach_client(0)
    rig.submit(0, "o:0")
    batch = rig.last_batch(0)
    # Fresh attach: seed must be sent again.
    assert isinstance(batch.entries[0].action, BlindWrite)


def test_double_attach_raises():
    rig = Rig()
    with pytest.raises(ProtocolError):
        rig.server.attach_client(0)


def test_conflicting_reported_results_raise():
    rig = Rig()
    action = rig.submit(0, "o:0", value=5)
    rig.complete(0, 0, action)
    # Need a second live entry to exercise disagreement on.
    other = rig.submit(1, "o:2", value=3)
    rig.complete(1, 1, other)
    third = rig.submit(0, "o:3", value=9)
    rig.complete(0, 2, third, values={"o:3": {"v": 9}})
    message = Completion(
        2, third.action_id, ActionResult.of({"o:3": {"v": 1}}), reporter=1
    )
    rig.network.send(1, SERVER_ID, message, 10)
    # pos 2 already committed -> ignored silently; use a fresh one instead.
    fourth = rig.submit(0, "o:0", value=2)
    rig.complete(0, 3, fourth, values={"o:0": {"v": 2}})
    # fourth committed; submit again and report twice with different values
    fifth = rig.submit(1, "o:1", value=4)
    rig.complete(1, 4, fifth, values={"o:1": {"v": 4}})
    assert rig.server.commit_frontier == 4


def test_server_closure_cost_charged():
    rig = Rig()
    rig.submit(0, "o:0")
    host = rig.server.host
    assert host.cpu_time_used == pytest.approx(
        TIMESTAMP_MS + CLOSURE_MS
    )
