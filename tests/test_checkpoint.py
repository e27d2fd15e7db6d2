"""Tests for the checkpoint (persistence) layer: exact round-trips,
the recovery log's periodic snapshots and high-water marks, and crash
recovery via checkpoint + WAL replay."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.state.checkpoint import ShardRecoveryLog, dump_store, load_store
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore


def sample_store():
    return ObjectStore([
        WorldObject("avatar:0", {"x": 1.5, "y": -2.0, "alive": True,
                                 "name": "zoe", "pos": (1.0, 2.0)}),
        WorldObject("fork:1", {"holder": None}),
    ])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
def test_roundtrip_exact():
    store = sample_store()
    restored = load_store(dump_store(store))
    assert restored.diff(store) == {}
    assert restored.get("avatar:0")["pos"] == (1.0, 2.0)
    assert isinstance(restored.get("avatar:0")["pos"], tuple)


def test_roundtrip_dicts_nested_in_tuples():
    """Regression: a dict nested inside a tuple attribute used to come
    back as the raw JSON object — string keys only, and a dict shaped
    like ``{"__tuple__": [...]}`` was indistinguishable from the tuple
    encoding itself.  The tagged codec round-trips them exactly."""
    store = ObjectStore([
        WorldObject("npc:0", {
            "inv": (("gold", 3), {"keys": (1, 2)}),
            "by_id": ({7: "seven", (1, 2): "pair"},),
            "tricky": ({"__tuple__": [1, 2]},),
        }),
    ])
    restored = load_store(dump_store(store))
    assert restored.diff(store) == {}
    npc = restored.get("npc:0")
    assert npc["inv"] == (("gold", 3), {"keys": (1, 2)})
    assert isinstance(npc["inv"][1]["keys"], tuple)
    assert npc["by_id"] == ({7: "seven", (1, 2): "pair"},)
    assert npc["tricky"] == ({"__tuple__": [1, 2]},)


def test_dump_is_canonical():
    a = sample_store()
    b = sample_store()
    assert dump_store(a) == dump_store(b)


def test_load_rejects_garbage():
    with pytest.raises(ProtocolError):
        load_store("not json at all {")
    with pytest.raises(ProtocolError):
        load_store('{"format": "something-else", "objects": {}}')


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        '{"format": "repro-checkpoint-v1"}',
        '{"format": "repro-checkpoint-v1", "objects": {"o": {"t": {"__tuple__": 1}}}}',
    ],
    ids=["list", "no-objects", "bad-tuple"],
)
def test_malformed_checkpoints_are_protocol_errors(text):
    with pytest.raises(ProtocolError):
        load_store(text)


def test_nested_tuples_roundtrip():
    store = ObjectStore([WorldObject("o:0", {"t": ((1, 2), (3, (4,)))})])
    restored = load_store(dump_store(store))
    assert restored.get("o:0")["t"] == ((1, 2), (3, (4,)))


attr_values = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
    st.tuples(st.integers(min_value=0, max_value=9),
              st.floats(min_value=-10, max_value=10)),
)


@given(
    objects=st.dictionaries(
        st.from_regex(r"[a-z]{1,6}:[0-9]{1,3}", fullmatch=True),
        st.dictionaries(st.text(min_size=1, max_size=8).filter(
            lambda s: "__tuple__" not in s), attr_values, max_size=4),
        max_size=8,
    )
)
def test_roundtrip_property(objects):
    store = ObjectStore(WorldObject(oid, attrs) for oid, attrs in objects.items())
    restored = load_store(dump_store(store))
    assert restored.diff(store) == {}


# ---------------------------------------------------------------------------
# The recovery log: checkpoint + WAL + high-water marks
# ---------------------------------------------------------------------------
def commit(log, store, pos, x):
    """Commit ``avatar:0.x = x`` at ``pos`` the way a server does: merge,
    then fire the hook (the log keeps the values, not the position)."""
    values = {"avatar:0": {"x": float(x)}}
    store.merge(values)
    log.on_commit(pos, 0, values)


def test_recovery_log_checkpoints_on_interval():
    store = sample_store()
    log = ShardRecoveryLog(store, interval_commits=3)
    for pos in range(7):
        commit(log, store, pos, pos)
    # Checkpoints after the 3rd and 6th commits (positions 2 and 5); the
    # WAL keeps the one commit since.
    assert load_store(log.checkpoint).get("avatar:0")["x"] == 5.0
    assert log.wal == [[("avatar:0", {"x": 6.0})]]
    assert log.recover().diff(store) == {}


def test_recover_without_checkpoint_merges_the_wal():
    store = sample_store()
    log = ShardRecoveryLog(store, interval_commits=10)
    commit(log, store, 0, 1)
    commit(log, store, 1, 2)
    assert log.checkpoint is None
    # An empty store plus the commits in order: the written attributes
    # at their latest values, nothing else.
    recovered = log.recover()
    assert sorted(recovered.ids()) == ["avatar:0"]
    assert dict(recovered.get("avatar:0").as_dict()) == {"x": 2.0}


def test_recovery_log_keeps_high_water_marks_without_gsn_records():
    log = ShardRecoveryLog(sample_store())
    assert (log.next_gsn, log.next_pos) == (0, 0)
    for gsn in (0, 3, 1):
        log.note_gsn(gsn)
    for pos in (4, 2):
        log.note_stream(pos)
    assert (log.max_gsn, log.next_gsn) == (3, 4)
    assert (log.max_pos, log.next_pos) == (4, 5)
    assert log.wal == []


def test_recovery_log_rejects_nonpositive_interval():
    for interval in (0, -1):
        with pytest.raises(ProtocolError):
            ShardRecoveryLog(sample_store(), interval_commits=interval)


# ---------------------------------------------------------------------------
# Crash recovery: the recovery log attached to a running server
# ---------------------------------------------------------------------------
def drive_moves(engine, world):
    """Eight moves per client, 150 ms apart, then run to quiescence."""
    for cid in range(4):
        client = engine.client(cid)

        def submit(cid=cid, client=client, n={"left": 8}):
            if n["left"] <= 0:
                return
            n["left"] -= 1
            client.submit(world.plan_move(
                client.optimistic, cid, client.next_action_id(), cost_ms=1.0
            ))

        engine.sim.call_every(150.0, submit, start_delay=4.0 + cid,
                              stop_at=1500.0)
    engine.run(until=3000.0)
    engine.run_to_quiescence()


def small_world():
    from repro.world.manhattan import ManhattanConfig, ManhattanWorld

    return ManhattanWorld(
        4,
        ManhattanConfig(width=150.0, height=150.0, num_walls=20,
                        spawn="cluster", spawn_extent=40.0, seed=6),
    )


def test_recovery_from_checkpoint_plus_replay():
    from repro.core.engine import SeveConfig, SeveEngine

    world = small_world()
    engine = SeveEngine(world, 4, SeveConfig(mode="seve", rtt_ms=100.0,
                                             tick_ms=20.0))
    engine.start(stop_at=60_000)
    log = ShardRecoveryLog(engine.state, interval_commits=5)
    engine.server.on_commit = log.on_commit
    drive_moves(engine, world)

    assert log.checkpoint is not None
    # Recovery: load the checkpoint, replay the WAL records after it.
    recovered = log.recover()
    for obj in engine.state.objects():
        assert recovered.get(obj.oid) == obj, obj.oid


@pytest.mark.faults
@pytest.mark.parametrize("sharded", [False, True], ids=["single", "two-shard"])
def test_recovery_under_lossy_transport(sharded):
    """Checkpoint + WAL replay reconstructs the live final state even
    when the run itself fought a lossy, jittery network over the ARQ
    transport — for the classic engine and for shard 0 of a two-shard
    deployment."""
    from repro.core.engine import SeveConfig, SeveEngine
    from repro.core.sharded import ShardedSeveEngine, ShardingConfig
    from repro.net.faults import FaultPlan

    world = small_world()
    config = SeveConfig(
        mode="seve",
        rtt_ms=100.0,
        tick_ms=20.0,
        fault_plan=FaultPlan(loss_rate=0.08, jitter_ms=30.0,
                             duplicate_rate=0.03, seed=4),
    )
    if sharded:
        engine = ShardedSeveEngine(
            world, 4, config,
            sharding=ShardingConfig(shards=2, world_width=150.0),
        )
    else:
        engine = SeveEngine(world, 4, config)
    engine.start(stop_at=60_000)

    initial = ObjectStore([obj.copy() for obj in engine.state.objects()])
    log = ShardRecoveryLog(engine.state, interval_commits=5)
    # A log that never reaches its interval keeps every commit.
    full = ShardRecoveryLog(engine.state, interval_commits=10**9)

    def on_commit(pos, client_id, values):
        full.on_commit(pos, client_id, values)
        log.on_commit(pos, client_id, values)

    engine.server.on_commit = on_commit
    drive_moves(engine, world)

    # The run really fought the fault plan.
    assert engine.network.meter.messages_dropped > 0
    assert engine.network.meter.retransmissions > 0
    assert len(full.wal) == engine.server.stats.actions_committed > 0
    assert log.checkpoint is not None

    # Full-WAL replay over the initial state equals the live state.
    for written in full.wal:
        initial.merge(dict(written))
    for obj in engine.state.objects():
        assert initial.get(obj.oid) == obj, obj.oid

    # Checkpoint restore + post-checkpoint WAL suffix equals it too.
    recovered = log.recover()
    for obj in engine.state.objects():
        assert recovered.get(obj.oid) == obj, obj.oid
