"""Tests for the sharded multi-server SEVE deployment
(:mod:`repro.core.sharded`): partition geometry, the ``shards=1``
byte-identity differential, cross-shard runs with spanning actions and
client handoffs, the consistency audit, and the configuration guards.
"""

from __future__ import annotations

import pytest

from repro.core.engine import SeveConfig, SeveEngine
from repro.core.sharded import (
    RegionPartition,
    ShardedSeveEngine,
    ShardingConfig,
)
from repro.core.action import BlindWrite
from repro.core.messages import SpanForward
from repro.errors import ConfigurationError, ProtocolError
from repro.harness.architectures import build_engine, build_world, seve_config
from repro.harness.config import SimulationSettings
from repro.harness.runner import run_simulation
from repro.harness.workload import MoveWorkload
from repro.net.faults import CrashWindow, FaultPlan, LivenessConfig, parse_crash_plan
from repro.types import shard_host_id
from tests.test_parallel_backend import result_key


# ---------------------------------------------------------------------------
# Partition geometry
# ---------------------------------------------------------------------------
def test_shard_of_owns_stripes_and_clamps():
    partition = RegionPartition(100.0, 4)
    assert partition.stripe_width == 25.0
    assert partition.shard_of(0.0) == 0
    assert partition.shard_of(24.999) == 0
    assert partition.shard_of(25.0) == 1
    assert partition.shard_of(99.0) == 3
    # Outside the world clamps to the border stripes.
    assert partition.shard_of(-50.0) == 0
    assert partition.shard_of(250.0) == 3


def test_bounds_tile_the_world():
    partition = RegionPartition(120.0, 3)
    intervals = [partition.bounds(k) for k in range(3)]
    assert intervals == [(0.0, 40.0), (40.0, 80.0), (80.0, 120.0)]


def test_shards_touching_spans_the_influence_disc():
    partition = RegionPartition(100.0, 4)
    assert partition.shards_touching(50.0, 0.0) == (2,)
    assert partition.shards_touching(24.0, 3.0) == (0, 1)
    assert partition.shards_touching(50.0, 60.0) == (0, 1, 2, 3)
    # Disc entirely outside the world still clamps to a real stripe.
    assert partition.shards_touching(-20.0, 5.0) == (0,)


def test_home_with_hysteresis_tolerates_border_wobble():
    partition = RegionPartition(100.0, 2)
    # Inside the margin around the current stripe: stay home.
    assert partition.home_with_hysteresis(52.0, 0, margin=5.0) == 0
    assert partition.home_with_hysteresis(48.0, 1, margin=5.0) == 1
    # Beyond the margin: migrate.
    assert partition.home_with_hysteresis(56.0, 0, margin=5.0) == 1
    assert partition.home_with_hysteresis(44.0, 1, margin=5.0) == 0


def test_sharding_config_validates():
    with pytest.raises(ConfigurationError):
        ShardingConfig(shards=0)
    with pytest.raises(ConfigurationError):
        ShardingConfig(world_width=0.0)
    with pytest.raises(ConfigurationError):
        ShardingConfig(handoff_margin=-1.0)
    with pytest.raises(ConfigurationError):
        RegionPartition(100.0, 0)
    with pytest.raises(ConfigurationError):
        RegionPartition(-1.0, 2)


# ---------------------------------------------------------------------------
# shards=1 differential: byte-identical to the classic single server
# ---------------------------------------------------------------------------
DIFF = SimulationSettings(
    num_clients=8,
    num_walls=120,
    moves_per_client=6,
    world_width=300.0,
    world_height=300.0,
    spawn="cluster",
    spawn_extent=100.0,
    rtt_ms=150.0,
    bandwidth_bps=None,
    move_interval_ms=200.0,
    cost_model="fixed",
    move_cost_ms=1.0,
    eval_overhead_ms=0.1,
    seed=11,
)

LOSSY = FaultPlan(loss_rate=0.05, jitter_ms=40.0, duplicate_rate=0.02, seed=7)


def _run_engine(shards, plan):
    """Run one engine (classic when ``shards`` is None, sharded
    otherwise) and return everything the run determines: final state,
    every client's observation log, the clock, the event count, and the
    wire traffic."""
    settings = DIFF.with_(fault_plan=plan)
    world = build_world(settings)
    config = seve_config(settings, "seve", record_observations=True)
    if shards is None:
        engine = SeveEngine(world, settings.num_clients, config)
    else:
        engine = ShardedSeveEngine(
            world,
            settings.num_clients,
            config,
            sharding=ShardingConfig(
                shards=shards, world_width=settings.world_width
            ),
        )
    workload = MoveWorkload(engine, world, settings)
    horizon = settings.workload_duration_ms + 2 * settings.move_interval_ms
    if plan is not None:
        engine.start(stop_at=horizon + 15_000.0)
    else:
        engine.start()
    workload.install()
    engine.run(until=horizon)
    engine.run_to_quiescence()
    state = {
        oid: tuple(sorted(engine.state.get(oid).as_dict().items()))
        for oid in sorted(engine.state.ids())
    }
    observations = {
        cid: tuple(client.observations)
        for cid, client in engine.clients.items()
    }
    return (
        state,
        observations,
        engine.sim.now,
        engine.sim.dispatched,
        engine.network.meter.total_bytes,
    )


def test_one_shard_is_byte_identical_to_classic():
    classic = _run_engine(None, None)
    sharded = _run_engine(1, None)
    assert sharded == classic
    assert sum(len(log) for log in classic[1].values()) > 50  # non-vacuous


@pytest.mark.slow
def test_one_shard_is_byte_identical_under_faults():
    classic = _run_engine(None, LOSSY)
    sharded = _run_engine(1, LOSSY)
    assert sharded == classic


# ---------------------------------------------------------------------------
# Cross-shard runs: spans, handoffs, and the consistency audit
# ---------------------------------------------------------------------------
#: Cluster spawn at the world centre straddles every K=2/K=4 border, so
#: most moves are spanning actions and several avatars drift across.
SHARDED = SimulationSettings(
    num_clients=12,
    num_walls=200,
    moves_per_client=24,
    world_width=1000.0,
    world_height=1000.0,
    spawn="cluster",
    spawn_extent=120.0,
    rtt_ms=150.0,
    bandwidth_bps=None,
    move_interval_ms=250.0,
    cost_model="fixed",
    move_cost_ms=1.0,
    eval_overhead_ms=0.1,
    seed=11,
    shards=2,
)


def _span_and_handoff_counts(result):
    spans = sum(row["spans_spliced"] for row in result.shard_rows)
    out = sum(row["handoffs_out"] for row in result.shard_rows)
    into = sum(row["handoffs_in"] for row in result.shard_rows)
    return spans, out, into


def test_two_shards_serialize_spans_and_hand_off_clients():
    result = run_simulation("seve", SHARDED)
    spans, out, into = _span_and_handoff_counts(result)
    assert spans > 0
    assert out > 0 and out == into  # every begun handoff completed
    assert result.shard_audit is not None
    assert result.shard_audit.consistent, result.shard_audit.summary()
    assert result.shard_audit.order_violations == []
    assert result.shard_audit.span_observations > 0
    assert result.consistency is not None and result.consistency.consistent
    # Serialization really is distributed: both shards committed work.
    assert all(row["committed"] > 0 for row in result.shard_rows)


@pytest.mark.slow
@pytest.mark.faults
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_run_survives_lossy_transport(shards):
    settings = SHARDED.with_(shards=shards, fault_plan=LOSSY)
    result = run_simulation("seve", settings)
    spans, out, into = _span_and_handoff_counts(result)
    assert spans > 0
    assert out == into
    assert result.messages_dropped > 0  # the plan actually injected
    assert result.retransmissions > 0
    assert result.shard_audit.consistent, result.shard_audit.summary()


@pytest.mark.slow
def test_more_shards_spread_the_serialization_load():
    """The scaling signal behind Section VII: with spread-out clients
    the per-shard serialized count drops as K grows."""
    settings = SHARDED.with_(
        spawn="uniform", num_clients=16, moves_per_client=16
    )
    per_shard_max = {}
    for shards in (1, 4):
        result = run_simulation("seve", settings.with_(shards=shards))
        if result.shard_audit is not None:
            assert result.shard_audit.consistent
        per_shard_max[shards] = max(
            row["serialized"] for row in (result.shard_rows or [{"serialized": 0}])
        ) if result.shard_rows else result.moves_submitted
    assert per_shard_max[4] < per_shard_max[1]


def test_all_clients_remain_attached_after_handoffs():
    world = build_world(SHARDED)
    engine = build_engine("seve", SHARDED, world)
    workload = MoveWorkload(engine, world, SHARDED)
    horizon = SHARDED.workload_duration_ms + 2 * SHARDED.move_interval_ms
    engine.start()
    workload.install()
    engine.run(until=horizon)
    engine.run_to_quiescence()
    assert isinstance(engine, ShardedSeveEngine)
    for client_id in engine.clients:
        assert engine.shard_of_client(client_id) is not None
        assert not engine.clients[client_id]._migrating
    total_in = sum(
        server.shard_stats.handoffs_in for server in engine.shard_servers
    )
    total_out = sum(
        server.shard_stats.handoffs_out for server in engine.shard_servers
    )
    assert total_in > 0 and total_in == total_out
    # Each adopted client now lives in the stripe that owns its
    # committed avatar position (modulo the hysteresis margin).
    for client_id in engine.clients:
        shard = engine.shard_of_client(client_id)
        obj = engine.shard_states[shard].get(engine.world.avatar_of(client_id))
        assert (
            engine.partition.home_with_hysteresis(
                float(obj["x"]), shard, engine.sharding.handoff_margin
            )
            == shard
        )


# ---------------------------------------------------------------------------
# Configuration guards
# ---------------------------------------------------------------------------
def test_shards_require_push_mode():
    settings = DIFF.with_(shards=2)
    for architecture in ("incomplete", "seve-basic", "central", "broadcast"):
        with pytest.raises(ConfigurationError):
            build_engine(architecture, settings)


def test_shards_accept_crash_plans_and_liveness():
    """Regression: crash plans and liveness configs are legal at every
    K (docs/control_plane.md) — the old shard-0-SPOF rejections are
    gone for good."""
    crashing = FaultPlan(
        loss_rate=0.01, seed=3, crashes=(CrashWindow(0, 500.0, 1500.0),)
    )
    engine = build_engine("seve", DIFF.with_(shards=2, fault_plan=crashing))
    assert isinstance(engine, ShardedSeveEngine)
    world = build_world(DIFF)
    config = SeveConfig(mode="seve", rtt_ms=150.0, liveness=LivenessConfig())
    engine = ShardedSeveEngine(
        world,
        DIFF.num_clients,
        config,
        sharding=ShardingConfig(shards=2, world_width=DIFF.world_width),
    )
    assert engine.config.liveness is not None


def test_shard_crash_window_guards():
    """The guards that remain: shard windows need K >= 2, a real shard
    index, and killing shard 0 for good needs the replicated plane."""
    dead_shard = FaultPlan(seed=3, crashes=(
        CrashWindow(-1, 500.0, 1500.0, shard_index=1),
    ))
    with pytest.raises(ConfigurationError):
        SimulationSettings(shards=1, fault_plan=dead_shard)
    out_of_range = FaultPlan(seed=3, crashes=(
        CrashWindow(-1, 500.0, None, shard_index=5),
    ))
    with pytest.raises(ConfigurationError):
        build_engine("seve", DIFF.with_(shards=2, fault_plan=out_of_range))
    kill_zero = FaultPlan(seed=3, crashes=(
        CrashWindow(-1, 500.0, None, shard_index=0),
    ))
    with pytest.raises(ConfigurationError):
        build_engine("seve", DIFF.with_(shards=2, fault_plan=kill_zero))
    # The identical plan is legal once the sequencer is replicated.
    engine = build_engine(
        "seve",
        DIFF.with_(shards=2, fault_plan=kill_zero, control_plane="replicated"),
    )
    assert isinstance(engine, ShardedSeveEngine)


def test_sharded_engine_rejects_pull_modes():
    world = build_world(DIFF)
    config = SeveConfig(mode="incomplete", rtt_ms=150.0)
    with pytest.raises(ConfigurationError):
        ShardedSeveEngine(
            world,
            DIFF.num_clients,
            config,
            sharding=ShardingConfig(shards=2, world_width=DIFF.world_width),
        )


def test_settings_validate_shard_count():
    with pytest.raises(ConfigurationError):
        SimulationSettings(shards=0)


# ---------------------------------------------------------------------------
# Crash fault tolerance and the replicated control plane
# (docs/control_plane.md)
# ---------------------------------------------------------------------------
#: Small clustered deployment whose centre-spawn keeps spanning actions
#: in flight throughout — crashes land mid-span by construction.
FAULTED = SimulationSettings(
    num_clients=12,
    num_walls=60,
    moves_per_client=10,
    world_width=400.0,
    world_height=300.0,
    spawn="cluster",
    spawn_extent=90.0,
    rtt_ms=150.0,
    bandwidth_bps=None,
    move_interval_ms=200.0,
    cost_model="fixed",
    move_cost_ms=1.0,
    eval_overhead_ms=0.1,
    seed=13,
)


def _assert_survivors_consistent(result):
    assert result.consistency is not None and result.consistency.consistent
    assert result.shard_audit is not None
    assert result.shard_audit.consistent, result.shard_audit.summary()
    assert result.shard_audit.order_violations == []
    assert result.responses_observed > 0


def test_replicated_plane_is_protocol_transparent_fault_free():
    """Fault-free, the lease is pre-granted to shard 0: no election
    ever fires and every protocol outcome matches single mode exactly —
    only the heartbeat traffic differs."""
    single = run_simulation("seve", FAULTED.with_(shards=2))
    repl = run_simulation(
        "seve", FAULTED.with_(shards=2, control_plane="replicated")
    )
    assert repl.failovers == 0
    assert repl.moves_submitted == single.moves_submitted
    assert repl.responses_observed == single.responses_observed
    assert repl.response.mean == single.response.mean
    assert repl.shard_audit.span_observations == (
        single.shard_audit.span_observations
    )
    assert repl.total_traffic_kb > single.total_traffic_kb  # heartbeats


def test_misrouted_span_forward_is_an_error_only_when_the_lease_is_pinned():
    """Every shard holds the lease state under both planes.  A
    SpanForward reaching a non-holder is stale routing while a failover
    can be in flight (``replicated``: ignored, the owner re-forwards on
    the grant), but under ``single`` the lease cannot move, so nothing
    legitimate ever sends one: it stays a ProtocolError."""
    forward = SpanForward(0, (0, 1), BlindWrite.from_server(0, {}))
    for control_plane, raises in (("single", True), ("replicated", False)):
        engine = build_engine(
            "seve", FAULTED.with_(shards=2, control_plane=control_plane)
        )
        holder, other = engine.shard_servers
        assert (holder.lease.term, holder.lease.holder) == (0, 0)
        assert holder.lease.is_holder and not other.lease.is_holder
        assert other.control.fails_over is not raises
        if raises:
            with pytest.raises(ProtocolError, match="only shard 0 sequences"):
                other._on_message(shard_host_id(0), forward)
        else:
            other._on_message(shard_host_id(0), forward)
        assert other.shard_stats.spans_sequenced == 0


@pytest.mark.faults
@pytest.mark.parametrize("shards", [2, 4])
def test_shard_crash_and_restart_recovers(shards):
    """A shard host dies mid-span-flight and restarts from its
    checkpoint+WAL; survivors adopt its span obligations and the
    honest-survivor audit stays green at K=2 and K=4."""
    plan = FaultPlan(
        seed=7, crashes=(CrashWindow(-1, 1500.0, 3500.0, shard_index=1),)
    )
    result = run_simulation(
        "seve", FAULTED.with_(shards=shards, fault_plan=plan)
    )
    _assert_survivors_consistent(result)


@pytest.mark.faults
def test_permanent_sequencer_crash_fails_over():
    """Killing shard 0 for good under the replicated plane: the lease
    quorum elects a new sequencer and the run completes with audits
    green — the exact run the singleton sequencer could never survive."""
    plan = FaultPlan(
        seed=7, crashes=(CrashWindow(-1, 2000.0, None, shard_index=0),)
    )
    result = run_simulation(
        "seve",
        FAULTED.with_(
            shards=4, fault_plan=plan, control_plane="replicated"
        ),
    )
    _assert_survivors_consistent(result)
    assert result.failovers >= 1
    first = result.failover_events[0]
    assert first["holder"] != 0
    assert first["at_ms"] >= 2000.0


@pytest.mark.faults
def test_client_crash_and_reconnect_under_loss():
    """Client churn on a lossy wire at K=2: one permanent death, one
    crash+rejoin via ClientHello; the survivors stay consistent."""
    plan = FaultPlan(
        loss_rate=0.02,
        seed=5,
        crashes=(
            CrashWindow(2, 1200.0, 2600.0),
            CrashWindow(5, 1800.0, None),
        ),
    )
    result = run_simulation(
        "seve", FAULTED.with_(shards=2, fault_plan=plan)
    )
    _assert_survivors_consistent(result)
    assert result.clients_evicted >= 1


@pytest.mark.slow
@pytest.mark.faults
def test_shard_crash_during_elastic_epochs():
    """Shard crash + restart while the elastic rebalancer is live: the
    drain quorum shrinks to the survivors, the restarted shard catches
    up on the committed partition version, and audits stay green."""
    plan = FaultPlan(
        seed=9, crashes=(CrashWindow(-1, 2500.0, 5000.0, shard_index=1),)
    )
    result = run_simulation(
        "seve",
        FAULTED.with_(
            num_walls=60,
            moves_per_client=12,
            shards=4,
            fault_plan=plan,
            elastic=True,
            elastic_interval_ms=400.0,
            elastic_hysteresis=2,
            control_plane="replicated",
        ),
    )
    _assert_survivors_consistent(result)


@pytest.mark.slow
@pytest.mark.faults
def test_backends_agree_under_shard_crash():
    """The acceptance scenario: the same shard-crash plan at K=4 as one
    partition, as four inline partitions, and on the multiprocessing
    backend — every audit is green and the three are byte-identical on
    the whole result surface (bar the dispatched-event count, which
    grows with W: every replica schedules the plan's crash windows)."""
    plan = FaultPlan(
        seed=7, crashes=(CrashWindow(-1, 1500.0, 3500.0, shard_index=2),)
    )
    base = FAULTED.with_(
        shards=4, fault_plan=plan, control_plane="replicated"
    )
    one = run_simulation("seve", base)
    many = run_simulation("seve", base.with_(workers=4))
    parallel = run_simulation(
        "seve", base.with_(backend="parallel", workers=4)
    )
    for result in (one, many, parallel):
        _assert_survivors_consistent(result)
    assert (
        result_key(one, events=False)
        == result_key(many, events=False)
        == result_key(parallel, events=False)
    )
    assert many.events == parallel.events


@pytest.mark.faults
@pytest.mark.parametrize("workers", [0, 2])
def test_evictions_are_counted_on_every_shard(workers):
    """Two clients homed on different shards crash for good; each is
    evicted by its own shard's liveness sweep, and the run reports both
    (it used to read shard 0's counter only)."""
    from tests.test_golden_runs import BASE

    plan = FaultPlan(seed=3, crashes=parse_crash_plan("3@1500,5@1600"))
    result = run_simulation(
        "seve", BASE.with_(shards=4, fault_plan=plan, workers=workers)
    )
    assert result.clients_evicted == 2
    _assert_survivors_consistent(result)
