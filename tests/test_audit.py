"""Tests for the audit log, cheat detectors, and history replay."""

from __future__ import annotations

import pytest

from repro.core.engine import SeveConfig, SeveEngine
from repro.metrics.audit import AuditLog
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore
from repro.world.manhattan import ManhattanConfig, ManhattanWorld


# ---------------------------------------------------------------------------
# Unit: detectors
# ---------------------------------------------------------------------------
def test_record_appends_and_roundtrips():
    log = AuditLog()
    log.record(0, 1, 100.0, {"avatar:1": {"x": 5.0, "y": 0.0}})
    assert len(log) == 1
    assert log.records[0].values() == {"avatar:1": {"x": 5.0, "y": 0.0}}
    assert log.records[0].client_id == 1


def test_speed_hack_detected():
    log = AuditLog(max_speed=10.0)
    log.record(0, 1, 0.0, {"avatar:1": {"x": 0.0, "y": 0.0}})
    # 500 units in 300ms at max speed 10 u/s: blatant teleport.
    log.record(1, 1, 300.0, {"avatar:1": {"x": 500.0, "y": 0.0}})
    assert len(log.alerts) == 1
    alert = log.alerts[0]
    assert alert.kind == "speed"
    assert alert.client_id == 1
    assert "avatar:1" in alert.detail


def test_legal_speed_not_flagged():
    log = AuditLog(max_speed=10.0)
    log.record(0, 1, 0.0, {"avatar:1": {"x": 0.0, "y": 0.0}})
    log.record(1, 1, 300.0, {"avatar:1": {"x": 3.0, "y": 0.0}})  # 10 u/s
    log.record(2, 1, 600.0, {"avatar:1": {"x": 6.0, "y": 0.0}})
    assert log.alerts == []


def test_damage_hack_detected():
    log = AuditLog(max_damage=25)
    log.record(0, 2, 0.0, {"avatar:3": {"health": 100}})
    log.record(1, 2, 100.0, {"avatar:3": {"health": 10}})  # 90 damage
    assert [a.kind for a in log.alerts] == ["damage"]


def test_legal_damage_not_flagged():
    log = AuditLog(max_damage=25)
    log.record(0, 2, 0.0, {"avatar:3": {"health": 100}})
    log.record(1, 2, 100.0, {"avatar:3": {"health": 75}})
    log.record(2, 2, 200.0, {"avatar:3": {"health": 100}})  # healing is fine
    assert log.alerts == []


def test_rate_hack_detected():
    log = AuditLog(min_action_interval_ms=300.0)
    for i in range(6):
        log.record(i, 4, float(i) * 10.0, {"o:0": {"v": i}})
    assert any(a.kind == "rate" for a in log.alerts)
    assert [a for a in log.alerts if a.client_id == 4]
    assert [a for a in log.alerts if a.client_id == 5] == []


def test_commit_bursts_not_flagged_as_rate_hack():
    # In-order commit frontiers release batches: two commits 0ms apart
    # are normal as long as the average rate is legal.
    log = AuditLog(min_action_interval_ms=300.0)
    times = [0.0, 300.0, 600.0, 601.0, 900.0, 1200.0]
    for i, t in enumerate(times):
        log.record(i, 4, t, {"o:0": {"v": i}})
    assert log.alerts == []


def test_detectors_disabled_by_default():
    log = AuditLog()
    log.record(0, 1, 0.0, {"avatar:1": {"x": 0.0, "y": 0.0, "health": 100}})
    log.record(1, 1, 1.0, {"avatar:1": {"x": 9999.0, "y": 0.0, "health": 0}})
    assert log.alerts == []


def test_replay_reconstructs_history():
    initial = ObjectStore([WorldObject("o:0", {"v": 0, "w": 7})])
    log = AuditLog()
    log.record(0, 1, 0.0, {"o:0": {"v": 1}})
    log.record(1, 2, 1.0, {"o:0": {"v": 2}})
    replayed = log.replay(initial)
    assert replayed.get("o:0")["v"] == 2
    assert replayed.get("o:0")["w"] == 7  # untouched attribute survives
    assert initial.get("o:0")["v"] == 0  # replay does not mutate input


# ---------------------------------------------------------------------------
# Integration: audit attached to a SEVE run
# ---------------------------------------------------------------------------
def run_audited(num_clients=6, moves=8):
    world = ManhattanWorld(
        num_clients,
        ManhattanConfig(width=200.0, height=200.0, num_walls=30,
                        spawn="cluster", spawn_extent=50.0, seed=17),
    )
    engine = SeveEngine(
        world, num_clients,
        SeveConfig(mode="seve", rtt_ms=100.0, tick_ms=20.0, enable_audit=True),
    )
    engine.start(stop_at=60_000)
    for cid in range(num_clients):
        client = engine.client(cid)

        def submit(cid=cid, client=client, n={"left": moves}):
            if n["left"] <= 0:
                return
            n["left"] -= 1
            client.submit(world.plan_move(
                client.optimistic, cid, client.next_action_id(), cost_ms=1.0
            ))

        engine.sim.call_every(150.0, submit, start_delay=3.0 + cid,
                              stop_at=150.0 * (moves + 2))
    engine.run(until=150.0 * (moves + 2))
    engine.run_to_quiescence()
    return world, engine


def test_audit_records_every_commit():
    world, engine = run_audited()
    assert engine.audit is not None
    assert len(engine.audit) == engine.server.stats.actions_committed


def test_honest_clients_raise_no_alerts():
    world, engine = run_audited()
    assert engine.audit.alerts == []


def test_replay_matches_authoritative_state():
    world, engine = run_audited()
    initial = ObjectStore(world.initial_objects())
    replayed = engine.audit.replay(initial)
    for obj in engine.state.objects():
        assert replayed.get(obj.oid) == obj, obj.oid


def test_audit_disabled_by_default():
    world = ManhattanWorld(2, ManhattanConfig(num_walls=0))
    engine = SeveEngine(world, 2, SeveConfig(mode="seve"))
    assert engine.audit is None
