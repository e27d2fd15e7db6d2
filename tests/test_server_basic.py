"""Unit tests for the basic serializer server (Algorithm 2)."""

from __future__ import annotations

import pytest

from repro.core.action import Action, ActionId
from repro.core.messages import ActionBatch, SubmitAction, wire_size
from repro.core.server_basic import TIMESTAMP_MS, BasicServer
from repro.errors import ProtocolError
from repro.net.host import Host
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.types import SERVER_ID


class Noop(Action):
    def __init__(self, action_id):
        super().__init__(action_id, reads=frozenset({"o"}), writes=frozenset())

    def compute(self, store):
        return {}


class Rig:
    def __init__(self, eager=False, clients=(0, 1, 2)):
        self.sim = Simulator()
        self.network = Network(self.sim, rtt_ms=100.0)
        self.server = BasicServer(
            self.sim, self.network, Host(self.sim, SERVER_ID), eager=eager
        )
        self.inboxes = {}
        for cid in clients:
            self.inboxes[cid] = []
            self.network.register(
                cid, lambda src, msg, cid=cid: self.inboxes[cid].append(msg)
            )
            self.server.attach_client(cid)
        self._seq = 0

    def submit(self, client_id):
        action = Noop(ActionId(client_id, self._seq))
        self._seq += 1
        message = SubmitAction(action)
        self.network.send(client_id, SERVER_ID, message, wire_size(message))
        return action

    def received_positions(self, client_id):
        positions = []
        for batch in self.inboxes[client_id]:
            assert isinstance(batch, ActionBatch)
            positions.extend(entry.pos for entry in batch.entries)
        return positions


def test_actions_get_sequential_positions():
    rig = Rig()
    a = rig.submit(0)
    b = rig.submit(1)
    rig.sim.run()
    assert rig.server.queue_length == 2
    assert rig.server.queue[0] is a
    assert rig.server.queue[1] is b


def test_reply_window_covers_unseen_actions():
    rig = Rig()
    rig.submit(0)
    rig.sim.run()
    # Client 0 submitted the first action: receives [0].
    assert rig.received_positions(0) == [0]
    rig.submit(1)
    rig.sim.run()
    # Client 1 had seen nothing: receives [0, 1].
    assert rig.received_positions(1) == [0, 1]
    rig.submit(0)
    rig.sim.run()
    # Client 0 had seen up to 0: receives [1, 2].
    assert rig.received_positions(0) == [0, 1, 2]


def test_idle_clients_receive_nothing_in_lazy_mode():
    rig = Rig()
    rig.submit(0)
    rig.sim.run()
    assert rig.received_positions(2) == []


def test_eager_mode_broadcasts_to_everyone():
    rig = Rig(eager=True)
    rig.submit(0)
    rig.sim.run()
    for cid in (0, 1, 2):
        assert rig.received_positions(cid) == [0]
    rig.submit(1)
    rig.sim.run()
    for cid in (0, 1, 2):
        assert rig.received_positions(cid) == [0, 1]


def test_eager_mode_never_duplicates():
    rig = Rig(eager=True)
    for _ in range(5):
        rig.submit(0)
        rig.submit(1)
    rig.sim.run()
    for cid in (0, 1, 2):
        positions = rig.received_positions(cid)
        assert positions == sorted(set(positions)) == list(range(10))


def test_detached_client_not_served():
    rig = Rig(eager=True)
    rig.server.detach_client(2)
    rig.network.unregister(2)
    rig.submit(0)
    rig.sim.run()
    assert rig.received_positions(2) == []


def test_unattached_submission_raises():
    rig = Rig(clients=(0,))
    rig.network.register(9, lambda src, msg: None)
    message = SubmitAction(Noop(ActionId(9, 0)))
    rig.network.send(9, SERVER_ID, message, 10)
    with pytest.raises(ProtocolError):
        rig.sim.run()


def test_double_attach_raises():
    rig = Rig(clients=(0,))
    with pytest.raises(ProtocolError):
        rig.server.attach_client(0)


def test_stats_counters():
    rig = Rig(eager=True)
    rig.submit(0)
    rig.submit(1)
    rig.sim.run()
    assert rig.server.stats.actions_serialized == 2
    assert rig.server.stats.batches_sent == 6  # 2 actions x 3 clients
    assert rig.server.stats.actions_delivered == 6


def test_timestamp_cost_delays_serialization():
    rig = Rig()
    rig.submit(0)
    rig.sim.run()
    # one-way 50ms + the timestamping CPU + one-way 50ms back
    assert rig.sim.now == pytest.approx(100.0 + TIMESTAMP_MS)
