"""The servers' one front door (:class:`repro.core.chassis.ServerShell`,
docs/fault_model.md): one test per Section III-C rule, each run against
the basic serializer (``seve-basic``), the Incomplete World server
(``seve``) and a baseline's server side (``central``).

Each engine is built by the harness.  A client submits through the
network; a retransmission is handed to the server's dispatcher
directly (so it arrives first), and what passed the door is read off
the shell's ``_accept`` hook.
"""

from __future__ import annotations

import copy

import pytest

from repro.adversary import AdversaryPlan
from repro.core.action import ActionId
from repro.core.chassis import ServerShell
from repro.core.messages import SubmitAction
from repro.harness.architectures import ARCHITECTURES, build_engine
from repro.harness.config import SimulationSettings
from repro.net.faults import FaultPlan, parse_crash_plan

FRONT_DOORS = ("seve-basic", "seve", "central")
#: The SEVE servers: a baseline relays every submission, so the rules
#: about what a detached client's submission does not do are theirs.
SEVE_DOORS = ("seve-basic", "seve")

SETTINGS = SimulationSettings(
    num_clients=3, num_walls=10, moves_per_client=0,
    world_width=150.0, world_height=150.0, spawn_extent=20.0, seed=3,
)
#: A crash plan arms heartbeat liveness (1 s beats, 5 s timeout); its
#: one window lies far past every test.
LIVE = SETTINGS.with_(fault_plan=FaultPlan(crashes=parse_crash_plan("2@900000")))


def _engine(architecture, settings=SETTINGS):
    """The engine, and the ids its server's front door let through."""
    engine = build_engine(architecture, settings)
    server, accepted = engine.server, []
    accept = server._accept

    def recording(src, message):
        accepted.append(message.action.action_id)
        accept(src, message)

    server._accept = recording
    return engine, accepted


def _action(engine, client_id, seq=0):
    return engine.world.plan_move(
        engine.planning_store(client_id), client_id, ActionId(client_id, seq),
        cost_ms=1.0,
    )


def _deliver(engine, client_id, action):
    """A retransmission of ``action``, arriving now."""
    engine.server._on_message(client_id, SubmitAction(action))


def _serialized(server) -> list:
    """The actions a SEVE server serialized and has not yet retired."""
    if hasattr(server, "queue"):
        return list(server.queue)  # the basic serializer keeps its log
    return [entry.action for entry in server._entries]


def _silence(engine, client_id):
    engine.network.crash(client_id)
    engine.mark_dead(client_id)


@pytest.mark.parametrize("architecture", FRONT_DOORS)
def test_a_resubmission_is_absorbed_and_counted(architecture):
    engine, accepted = _engine(architecture)
    action = _action(engine, 0)
    engine.submit(0, action)
    _deliver(engine, 0, action)
    engine.sim.run()
    assert accepted == [action.action_id]
    assert engine.server.stats.duplicate_submissions == 1
    if architecture in SEVE_DOORS:
        assert engine.server.stats.actions_serialized == 1


@pytest.mark.parametrize(
    "architecture, relayed",
    [("seve-basic", False), ("seve", False), ("central", True)],
)
def test_a_detached_clients_submission_burns_no_id(architecture, relayed):
    """A SEVE server drops it without burning the id, so the
    resubmission after re-attaching serializes; a baseline relays every
    submission."""
    engine, accepted = _engine(architecture)
    server = engine.server
    server.detach_client(0)
    action = _action(engine, 0)
    engine.submit(0, action)
    engine.sim.run()
    assert accepted == ([action.action_id] if relayed else [])
    if not relayed:
        assert _serialized(server) == []
    server.attach_client(0)
    _deliver(engine, 0, action)
    engine.sim.run()
    assert accepted == [action.action_id]
    assert server.stats.duplicate_submissions == int(relayed)
    if not relayed:
        assert server.stats.actions_serialized == 1
        (serialized,) = _serialized(server)
        assert serialized is action


@pytest.mark.parametrize("architecture", SEVE_DOORS)
def test_a_detach_between_receipt_and_admission_unburns_the_id(architecture):
    engine, accepted = _engine(architecture)
    server = engine.server
    action = _action(engine, 0)
    engine.submit(0, action)  # this copy arrives detached: dropped
    _deliver(engine, 0, action)  # through the door; the host work waits
    server.detach_client(0)
    engine.sim.run()
    assert server.stats.actions_serialized == 0
    assert _serialized(server) == []
    server.attach_client(0)
    _deliver(engine, 0, action)
    engine.sim.run()
    assert server.stats.actions_serialized == 1
    assert server.stats.duplicate_submissions == 0
    assert accepted == [action.action_id] * 2
    (serialized,) = _serialized(server)
    assert serialized is action


@pytest.mark.parametrize("architecture", FRONT_DOORS)
def test_a_silent_client_is_evicted(architecture):
    engine, _ = _engine(architecture, LIVE)
    engine.start(stop_at=20_000.0)
    engine.sim.schedule(1_000.0, lambda: _silence(engine, 0))
    engine.run(until=10_000.0)
    assert engine.server.stats.clients_evicted == 1
    assert engine.clients_evicted == 1
    assert 0 not in engine.server.clients
    assert engine.live_client_ids() == [1, 2]


@pytest.mark.parametrize("architecture", FRONT_DOORS)
def test_a_reconnected_client_is_readmitted(architecture):
    engine, accepted = _engine(architecture, LIVE)
    engine.start(stop_at=20_000.0)
    engine.sim.schedule(1_000.0, lambda: _silence(engine, 0))

    def revive():
        engine.network.reconnect(0)
        engine.mark_alive(0)

    engine.sim.schedule(8_000.0, revive)  # well past the eviction
    engine.run(until=9_000.0)
    assert 0 in engine.server.clients
    assert engine.live_client_ids() == [0, 1, 2]
    action = _action(engine, 0)
    engine.submit(0, action)
    engine.run(until=16_000.0)  # it heartbeats again: no second eviction
    assert accepted == [action.action_id]
    assert engine.server.stats.clients_evicted == 1


@pytest.mark.parametrize("architecture", SEVE_DOORS)
def test_a_mutated_replay_is_flagged(architecture):
    plan = AdversaryPlan(assignments=(("forge", (2,)),))  # arms the detector
    engine, accepted = _engine(architecture, SETTINGS.with_(adversary=plan))
    action = _action(engine, 0)
    _deliver(engine, 0, action)
    _deliver(engine, 0, action)  # the honest retry shape: counted
    replayed = copy.copy(action)
    replayed.cost_ms += 1.0
    _deliver(engine, 0, replayed)
    assert accepted == [action.action_id]
    assert engine.server.stats.duplicate_submissions == 1
    assert engine.detector.counts == {"replay": 1}
    assert engine.quarantined == {0}


@pytest.mark.parametrize("architecture", SEVE_DOORS)
def test_an_armed_server_flags_a_stray_message_as_a_breach(architecture):
    class Stray:
        pass

    plan = AdversaryPlan(assignments=(("forge", (2,)),))
    engine, _ = _engine(architecture, SETTINGS.with_(adversary=plan))
    engine.server._on_message(1, Stray())
    assert engine.detector.counts == {"breach": 1}
    assert engine.quarantined == {1}


@pytest.mark.parametrize("architecture", ARCHITECTURES)
def test_every_server_is_a_shell_watching_exactly_its_clients(architecture):
    engine = build_engine(architecture, SETTINGS.with_(num_clients=4))
    servers = getattr(engine, "shard_servers", None) or [engine.server]
    for server in servers:
        assert isinstance(server, ServerShell)
        assert list(server._last_heard) == list(server.clients)
    assert sorted(c for server in servers for c in server.clients) == [0, 1, 2, 3]
