"""Unit tests for the client-side protocol (Algorithms 1, 3, 4).

These drive a single ProtocolClient against a hand-rolled fake server so
every step of the pseudocode is observable: optimistic evaluation, the
pending queue, stable application, write propagation outside WS(Q),
reconciliation, completions, and aborts.
"""

from __future__ import annotations

import random

import pytest

from repro.core.action import Action, ActionId, ActionResult, BlindWrite
from repro.core.client import ClientConfig, ProtocolClient
from repro.core.messages import (
    AbortNotice,
    ActionBatch,
    Completion,
    HandoffWelcome,
    OrderedAction,
    SubmitAction,
)
from repro.errors import ActionAborted, ProtocolError
from repro.net.host import Host
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore
from repro.types import SERVER_ID, shard_host_id


class AddAction(Action):
    """counter += amount; aborts if the counter is negative."""

    def __init__(self, action_id, amount, oid="counter:0"):
        super().__init__(
            action_id,
            reads=frozenset({oid}),
            writes=frozenset({oid}),
            cost_ms=1.0,
        )
        self.amount = amount
        self.oid = oid

    def compute(self, store):
        value = int(store.get(self.oid)["value"])
        if value < 0:
            raise ActionAborted("negative")
        return {self.oid: {"value": value + self.amount}}


class Harness:
    """One client + a scripted server endpoint."""

    def __init__(self, **config):
        self.sim = Simulator()
        self.network = Network(self.sim, rtt_ms=100.0)
        self.server_inbox = []
        self.network.register(
            SERVER_ID, lambda src, msg: self.server_inbox.append((src, msg))
        )
        store = ObjectStore(
            [
                WorldObject("counter:0", {"value": 0}),
                WorldObject("other:0", {"value": 100}),
            ]
        )
        self.client = ProtocolClient(
            self.sim,
            self.network,
            Host(self.sim, 0),
            0,
            store,
            config=ClientConfig(**config),
        )
        self.confirmed = []
        self.aborted = []
        self.client.on_confirmed = lambda a, ms: self.confirmed.append((a, ms))
        self.client.on_aborted = lambda aid: self.aborted.append(aid)

    def deliver(self, *entries, last_installed=-1):
        """Hand the client a batch as if the server sent it."""
        batch = ActionBatch(tuple(entries), last_installed=last_installed)
        self.network.send(SERVER_ID, 0, batch, 10)
        self.sim.run()

    def submitted_actions(self):
        return [m.action for _, m in self.server_inbox if isinstance(m, SubmitAction)]

    def completions(self):
        return [m for _, m in self.server_inbox if isinstance(m, Completion)]


def test_submit_applies_optimistically_and_sends():
    h = Harness()
    action = AddAction(h.client.next_action_id(), 5)
    h.client.submit(action)
    assert h.client.optimistic.get("counter:0")["value"] == 5
    assert h.client.stable.get("counter:0")["value"] == 0  # untouched
    assert h.client.pending_count == 1
    h.sim.run()
    assert h.submitted_actions() == [action]


def test_next_action_id_monotonic():
    h = Harness()
    ids = [h.client.next_action_id() for _ in range(3)]
    assert ids == [ActionId(0, 0), ActionId(0, 1), ActionId(0, 2)]


def test_submitting_foreign_action_rejected():
    h = Harness()
    foreign = AddAction(ActionId(9, 0), 1)
    with pytest.raises(ProtocolError):
        h.client.submit(foreign)


def test_own_action_confirmed_pops_queue_and_measures_response():
    h = Harness()
    action = AddAction(h.client.next_action_id(), 5)
    h.client.submit(action)
    h.sim.run()
    h.deliver(OrderedAction(0, action))
    assert h.client.pending_count == 0
    assert h.client.stable.get("counter:0")["value"] == 5
    assert len(h.confirmed) == 1
    _, response_ms = h.confirmed[0]
    assert response_ms > 0
    assert h.client.stats.mismatches == 0


def test_remote_action_applies_to_stable_and_propagates():
    h = Harness()
    remote = AddAction(ActionId(2, 0), 7)
    h.deliver(OrderedAction(0, remote))
    assert h.client.stable.get("counter:0")["value"] == 7
    # No pending writes -> optimistic mirror updated too.
    assert h.client.optimistic.get("counter:0")["value"] == 7
    assert h.client.stats.stable_evaluations == 1


def test_remote_write_not_propagated_inside_ws_q():
    h = Harness()
    own = AddAction(h.client.next_action_id(), 5)
    h.client.submit(own)  # counter in WS(Q), optimistic = 5
    remote = AddAction(ActionId(2, 0), 100)
    h.deliver(OrderedAction(0, remote))
    # Stable moves to 100, optimistic keeps the local guess (Algorithm 4
    # step 4: x in WS(Q) is awaiting its permanent value).
    assert h.client.stable.get("counter:0")["value"] == 100
    assert h.client.optimistic.get("counter:0")["value"] == 5


def test_mismatch_triggers_reconciliation():
    h = Harness()
    own = AddAction(h.client.next_action_id(), 5)
    h.client.submit(own)  # optimistic: 0 -> 5
    remote = AddAction(ActionId(2, 0), 100)
    # Server serialized the remote action first: stable plays 100 then 105.
    h.deliver(OrderedAction(0, remote), OrderedAction(1, own))
    assert h.client.stable.get("counter:0")["value"] == 105
    assert h.client.optimistic.get("counter:0")["value"] == 105
    assert h.client.stats.mismatches == 1
    assert h.client.stats.reconciliations == 1
    assert h.client.pending_count == 0


def test_reconciliation_replays_remaining_queue():
    h = Harness()
    first = AddAction(h.client.next_action_id(), 5)
    second = AddAction(h.client.next_action_id(), 3)
    h.client.submit(first)   # optimistic 5
    h.client.submit(second)  # optimistic 8
    remote = AddAction(ActionId(2, 0), 100)
    h.deliver(OrderedAction(0, remote), OrderedAction(1, first))
    # first confirmed with mismatch (105 vs 5); second replayed on top.
    assert h.client.stable.get("counter:0")["value"] == 105
    assert h.client.optimistic.get("counter:0")["value"] == 108
    assert h.client.pending_count == 1


def test_blind_write_installs_new_objects():
    h = Harness()
    blind = BlindWrite.from_server(0, {"new:0": {"value": 1}})
    h.deliver(OrderedAction(-1, blind))
    assert h.client.stable.get("new:0")["value"] == 1
    assert h.client.optimistic.get("new:0")["value"] == 1
    assert h.client.stats.blind_writes_applied == 1


def test_completions_sent_in_incomplete_mode():
    h = Harness(send_completions=True)
    action = AddAction(h.client.next_action_id(), 5)
    h.client.submit(action)
    h.sim.run()
    h.deliver(OrderedAction(3, action))
    completions = h.completions()
    assert len(completions) == 1
    assert completions[0].pos == 3
    assert completions[0].action_id == action.action_id
    assert completions[0].result == ActionResult.of({"counter:0": {"value": 5}})


def test_no_completions_in_basic_mode():
    h = Harness(send_completions=False)
    action = AddAction(h.client.next_action_id(), 5)
    h.client.submit(action)
    h.sim.run()
    h.deliver(OrderedAction(0, action))
    assert h.completions() == []


def test_report_all_completions_mode():
    h = Harness(send_completions=True, report_all_completions=True)
    remote = AddAction(ActionId(2, 0), 7)
    h.deliver(OrderedAction(4, remote))
    completions = h.completions()
    assert len(completions) == 1
    assert completions[0].pos == 4
    assert completions[0].reporter == 0


def test_abort_rolls_back_optimistic_state():
    h = Harness()
    action = AddAction(h.client.next_action_id(), 5)
    h.client.submit(action)
    assert h.client.optimistic.get("counter:0")["value"] == 5
    h.network.send(SERVER_ID, 0, AbortNotice(action.action_id), 10)
    h.sim.run()
    assert h.client.pending_count == 0
    assert h.client.optimistic.get("counter:0")["value"] == 0
    assert h.client.stats.aborted == 1
    assert h.aborted == [action.action_id]


def test_abort_replays_surviving_actions():
    h = Harness()
    first = AddAction(h.client.next_action_id(), 5)
    second = AddAction(h.client.next_action_id(), 3)
    h.client.submit(first)
    h.client.submit(second)
    h.network.send(SERVER_ID, 0, AbortNotice(first.action_id), 10)
    h.sim.run()
    assert h.client.pending_count == 1
    assert h.client.optimistic.get("counter:0")["value"] == 3  # only second


def test_abort_for_unknown_action_is_harmless():
    h = Harness()
    h.network.send(SERVER_ID, 0, AbortNotice(ActionId(0, 99)), 10)
    h.sim.run()
    assert h.client.stats.aborted == 0


def test_duplicate_position_delivery_raises():
    h = Harness()
    remote = AddAction(ActionId(2, 0), 1)
    h.deliver(OrderedAction(0, remote))
    with pytest.raises(ProtocolError):
        h.deliver(OrderedAction(0, AddAction(ActionId(2, 1), 1)))


def test_own_action_out_of_order_raises():
    h = Harness()
    first = AddAction(h.client.next_action_id(), 1)
    second = AddAction(h.client.next_action_id(), 2)
    h.client.submit(first)
    h.client.submit(second)
    with pytest.raises(ProtocolError):
        h.deliver(OrderedAction(0, second))  # head is `first`


def test_gc_frontier_prunes_dedup_positions():
    h = Harness()
    remote = AddAction(ActionId(2, 0), 1)
    h.deliver(OrderedAction(0, remote))
    assert 0 in h.client._applied_positions
    later = AddAction(ActionId(2, 1), 1)
    h.deliver(OrderedAction(5, later), last_installed=3)
    assert 0 not in h.client._applied_positions
    assert 5 in h.client._applied_positions


class _RebuildOracle:
    """The dedup bookkeeping as a per-batch set rebuild keeps it: when a
    batch's ``last_installed`` passes the frontier, the positions above
    the new frontier, copied into a fresh set; one parked set and
    frontier per stream a handoff left."""

    def __init__(self, stream):
        self.applied, self.frontier, self.stream, self.parked = set(), -1, stream, {}

    def batch(self, positions, last_installed):
        """The duplicate verdict of each of ``positions``."""
        if last_installed > self.frontier:
            self.frontier = last_installed
            self.applied = {pos for pos in self.applied if pos > self.frontier}
        verdicts = []
        for pos in positions:
            verdicts.append(pos in self.applied)
            self.applied.add(pos)
        return verdicts

    def swap(self, stream):
        self.parked[self.stream] = (self.applied, self.frontier)
        self.applied, self.frontier = self.parked.pop(stream, (set(), -1))
        self.stream = stream


def test_dedup_pruning_matches_a_set_rebuild_after_every_batch():
    """Random delivery sequences — in-order batches, late positions at or
    below the frontier, repeats, crash discards and handoff stream swaps
    — keep ``_applied_positions`` and every duplicate verdict equal to
    those of a set rebuilt on every batch that moves the frontier."""
    rng = random.Random(58)
    events = dict(late=0, swaps=0, discards=0, short_walks=0, set_walks=0)
    for _ in range(60):
        h = Harness(strict_stream=False)
        client = h.client
        client.server_id = shard_host_id(0)
        oracle = _RebuildOracle(0)
        tops = {0: -1}  # highest position sent per stream
        for _ in range(40):
            roll = rng.random()
            if roll < 0.08:  # a handoff to another shard's stream
                stream = rng.choice([s for s in range(3) if s != oracle.stream])
                client._complete_migration(shard_host_id(stream), HandoffWelcome(stream))
                oracle.swap(stream)
                tops.setdefault(stream, -1)
                events["swaps"] += 1
                continue
            top = tops[oracle.stream]
            positions = list(range(top + 1, top + 1 + rng.randrange(6)))
            if roll < 0.4 and top >= 0:  # late positions and repeats below the top
                positions += rng.sample(range(top + 1), min(top + 1, rng.randrange(1, 4)))
                events["late"] += any(pos <= oracle.frontier for pos in positions)
            tops[oracle.stream] = max([top, *positions])
            jump = rng.choice([0, 1, 2, 5, 40])
            last_installed = min(oracle.frontier + jump, tops[oracle.stream] + jump)
            if last_installed > oracle.frontier:
                walk = last_installed - oracle.frontier
                events["short_walks" if walk <= len(oracle.applied) else "set_walks"] += 1
            entries = [
                OrderedAction(pos, BlindWrite(ActionId(SERVER_ID, pos), {})) for pos in positions
            ]
            queued = len(client._arrivals or ())
            client._on_batch(client.server_id, ActionBatch(tuple(entries), last_installed=last_installed))
            accepted = (client._arrivals or [])[queued:]
            want = oracle.batch(positions, last_installed)
            assert [not any(entry is taken for taken in accepted) for entry in entries] == want
            if roll > 0.9:  # crashed before the CPU applied them
                h.network.crash(0)
                h.sim.run()
                h.network.reconnect(0)
                for entry in accepted:
                    oracle.applied.discard(entry.pos)
                events["discards"] += len(accepted)
            h.sim.run()
            assert client._applied_positions == oracle.applied
            assert client._gc_frontier == oracle.frontier
    assert all(count > 10 for count in events.values()), events


def test_optimistic_eval_tolerates_missing_reads():
    h = Harness()
    action = AddAction(h.client.next_action_id(), 1, oid="ghost:0")
    h.client.submit(action)  # must not raise
    assert h.client.pending_count == 1
    _, optimistic_result = h.client.queue.head()
    assert optimistic_result.aborted


def test_eval_cost_charged_to_cpu():
    h = Harness()
    action = AddAction(h.client.next_action_id(), 5)
    h.client.submit(action)
    # Optimistic evaluation cost (1.0 + 1.9 overhead) is on the CPU.
    assert h.client.host.busy
    h.sim.run()
    assert h.client.host.cpu_time_used == pytest.approx(2.9)
