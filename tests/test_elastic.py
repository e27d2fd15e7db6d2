"""Tests for elastic load-aware sharding (:mod:`repro.core.elastic`,
docs/elasticity.md): the planner, the off-path byte-identity contract,
flash-crowd rebalancing with the cross-shard audits, partition-version
edge cases (splits racing spans, merges racing handoff drains, lossy
transport) and the windowed-scheduler differential.
"""

from __future__ import annotations

import pytest

from repro.core.elastic import ElasticConfig, plan_boundaries
from repro.core.sharded import RegionPartition, ShardedSeveEngine, ShardingConfig
from repro.errors import ConfigurationError
from repro.harness.architectures import build_engine, build_world, seve_config
from repro.harness.config import SimulationSettings
from repro.harness.runner import run_simulation
from repro.harness.workload import MoveWorkload, start_run
from repro.metrics.shard_audit import audit_sharded_run
from repro.net.faults import FaultPlan, parse_crash_plan
from tests.test_parallel_backend import result_key


# ---------------------------------------------------------------------------
# Planner and partition geometry
# ---------------------------------------------------------------------------
def test_elastic_config_validates():
    """The elastic knobs' ranges are declared on the settings and checked
    with or without ``elastic=True``; :class:`ElasticConfig` takes what
    the settings let through."""
    for bad in (
        dict(elastic_interval_ms=0.0),
        dict(elastic_threshold=1.0),
        dict(elastic_hysteresis=0),
        dict(elastic_min_stripe=0.0),
    ):
        for elastic in (dict(), dict(elastic=True, shards=4)):
            with pytest.raises(ConfigurationError):
                SimulationSettings(**bad, **elastic)
    assert SimulationSettings(elastic_min_stripe=None).elastic_min_stripe is None


def test_plan_boundaries_equalizes_uniform_density():
    # All the load in the middle two stripes: the outer cuts move in.
    cuts = plan_boundaries(
        [0.0, 10.0, 10.0, 0.0],
        [(0, 25), (25, 50), (50, 75), (75, 100)],
        100.0,
        1.0,
    )
    assert cuts == [37.5, 50.0, 62.5]
    # Balanced load keeps the equal cuts.
    assert plan_boundaries(
        [5.0, 5.0, 5.0, 5.0],
        [(0, 25), (25, 50), (50, 75), (75, 100)],
        100.0,
        1.0,
    ) == [25.0, 50.0, 75.0]


def test_plan_boundaries_respects_min_stripe():
    cuts = plan_boundaries(
        [100.0, 0.0, 0.0, 0.0],
        [(0, 25), (25, 50), (50, 75), (75, 100)],
        100.0,
        10.0,
    )
    assert cuts == [10.0, 20.0, 30.0]
    widths = [b - a for a, b in zip([0.0] + cuts, cuts + [100.0])]
    assert all(width >= 10.0 for width in widths)


def test_elastic_partition_applies_versions():
    partition = RegionPartition(100.0, 4)
    assert partition.version == 0
    assert partition.boundaries == [25.0, 50.0, 75.0]
    partition.apply(1, (10.0, 50.0, 90.0))
    assert partition.version == 1
    assert partition.shard_of(5.0) == 0
    assert partition.shard_of(10.0) == 1
    assert partition.shard_of(89.0) == 2
    assert partition.bounds(0) == (0.0, 10.0)
    assert partition.bounds(3) == (90.0, 100.0)
    assert partition.shards_touching(50.0, 40.0) == (1, 2, 3)
    assert partition.shards_touching(50.0, 45.0) == (0, 1, 2, 3)


def test_stripes_touching_matches_partition_classification():
    """The stripes a disc touches by their [lo, hi) intervals are the
    ones the partition classifies it into, under the equal cuts and
    under moved ones."""
    for cuts in ([25.0, 50.0, 75.0], [10.0, 12.0, 80.0]):
        partition = RegionPartition(100.0, 4, boundaries=cuts)
        for x in (0.0, 10.0, 24.0, 25.0, 49.9, 60.0, 99.0):
            for radius in (0.0, 3.0, 30.0):
                lo, hi = x - radius, x + radius
                expected = tuple(
                    shard
                    for shard in range(4)
                    if partition.bounds(shard)[0] <= hi
                    and lo < partition.bounds(shard)[1]
                )
                assert partition.shards_touching(x, radius) == expected, (cuts, x, radius)


def test_settings_reject_elastic_without_shards():
    with pytest.raises(ConfigurationError):
        SimulationSettings(elastic=True, shards=1)
    with pytest.raises(ConfigurationError):
        SimulationSettings(elastic=True, shards=4, elastic_threshold=0.5)


# ---------------------------------------------------------------------------
# Flash-crowd workload: a tight crowd straddling the centre cut of a
# wide world, so two of four static stripes carry all the load.
# ---------------------------------------------------------------------------
FLASH = SimulationSettings(
    num_clients=16,
    num_walls=0,
    moves_per_client=24,
    world_width=4000.0,
    world_height=4000.0,
    spawn="cluster",
    spawn_extent=1000.0,
    rtt_ms=150.0,
    bandwidth_bps=None,
    move_interval_ms=200.0,
    cost_model="fixed",
    move_cost_ms=1.0,
    eval_overhead_ms=0.1,
    seed=11,
    shards=4,
)

ELASTIC = FLASH.with_(
    elastic=True, elastic_interval_ms=500.0, elastic_threshold=1.5
)

LOSSY = FaultPlan(loss_rate=0.05, jitter_ms=40.0, duplicate_rate=0.02, seed=7)


def _run_engine(settings, *, elastic=None, plan=None):
    """Drive one sharded engine directly and return the determinism
    fingerprint (final state, per-client observations) plus the engine
    for white-box assertions."""
    settings = settings.with_(fault_plan=plan)
    world = build_world(settings)
    config = seve_config(settings, "seve", record_observations=True)
    engine = ShardedSeveEngine(
        world,
        settings.num_clients,
        config,
        sharding=ShardingConfig(
            shards=settings.shards,
            world_width=settings.world_width,
            elastic=elastic,
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
    return state, observations, engine


def _assert_drained(engine):
    """Every elastic epoch retired and every control message consumed."""
    assert all(server.quiescent() for server in engine.shard_servers)
    sent = sum(server.elastic_sent for server in engine.shard_servers)
    received = sum(server.elastic_received for server in engine.shard_servers)
    assert sent == received


# ---------------------------------------------------------------------------
# Off-path byte-identity: --elastic off IS the static engine
# ---------------------------------------------------------------------------
def test_elastic_off_is_structurally_static():
    """With no ElasticConfig every shard's partition stays what it was
    built as — version 0, equal-width cuts, no epoch ever opened — and
    no elastic control message is sent."""
    _, _, engine = _run_engine(FLASH)
    for server in engine.shard_servers:
        assert server.partition.version == 0
        assert server.partition.boundaries == [1000.0, 2000.0, 3000.0]
        assert server.rebalancer.epochs == []
        assert server.rebalancer.config is None
        assert server.elastic_sent == 0 and server.elastic_received == 0
        assert server.rebalancer.rebalance_log == []
    assert engine.rebalance_events == ()


def test_inert_elastic_run_matches_static_fingerprint():
    """An armed controller that never fires (threshold unreachable)
    leaves the data plane untouched: same final state, same per-client
    observation logs as the static run.  Only the control traffic
    (load reports) differs, which the fingerprint excludes."""
    static_state, static_obs, _ = _run_engine(FLASH)
    inert = ElasticConfig(interval_ms=500.0, threshold=1e9)
    elastic_state, elastic_obs, engine = _run_engine(FLASH, elastic=inert)
    assert elastic_state == static_state
    assert elastic_obs == static_obs
    assert engine.rebalance_events == ()
    assert all(server.partition.version == 0 for server in engine.shard_servers)
    _assert_drained(engine)


# ---------------------------------------------------------------------------
# Live rebalancing under the flash crowd
# ---------------------------------------------------------------------------
def test_flash_crowd_rebalances_and_stays_consistent():
    _, _, engine = _run_engine(
        FLASH, elastic=ElasticConfig(interval_ms=500.0, threshold=1.5)
    )
    events = engine.rebalance_events
    assert len(events) >= 1
    for event in events:
        assert event["imbalance"] >= 1.5
        cuts = event["boundaries"]
        assert list(cuts) == sorted(cuts)
    # Variable-width stripes: the final cuts moved off the equal grid.
    lo, hi = engine.shard_servers[0].stripe
    assert (lo, hi) != (0.0, 1000.0)
    # Every shard converged to the same committed partition.
    versions = {server.partition.version for server in engine.shard_servers}
    boundaries = {
        tuple(server.partition.boundaries) for server in engine.shard_servers
    }
    assert len(versions) == 1 and len(boundaries) == 1
    _assert_drained(engine)
    audit = audit_sharded_run(engine)
    assert audit.consistent, audit.summary()
    assert audit.order_violations == []
    assert audit.span_observations > 0


def test_flash_crowd_elasticity_reduces_bottleneck_load():
    """The acceptance signal: under the flash crowd the hottest shard
    serializes strictly less with the rebalancer on."""
    static = run_simulation("seve", FLASH)
    elastic = run_simulation("seve", ELASTIC)
    assert elastic.rebalances >= 1
    static_max = max(row["serialized"] for row in static.shard_rows)
    elastic_max = max(row["serialized"] for row in elastic.shard_rows)
    assert elastic_max < static_max
    assert elastic.shard_audit.consistent, elastic.shard_audit.summary()
    assert elastic.shard_audit.order_violations == []


def test_split_while_spans_in_flight():
    """An aggressive controller (every 200 ms, hysteresis 1) fires
    rebalances while two-phase spans are continuously in flight; the
    union-of-epochs classification must keep every store consistent."""
    _, _, engine = _run_engine(
        FLASH,
        elastic=ElasticConfig(
            interval_ms=200.0, threshold=1.2, hysteresis=1
        ),
    )
    assert len(engine.rebalance_events) >= 2
    spans = sum(
        server.shard_stats.spans_spliced for server in engine.shard_servers
    )
    assert spans > 0
    _assert_drained(engine)
    audit = audit_sharded_run(engine)
    assert audit.consistent, audit.summary()
    assert audit.order_violations == []


def test_merge_while_handoff_barrier_drains():
    """Back-to-back rebalances overlap the bulk handoffs (and organic
    hysteresis handoffs) of earlier epochs: transfers park behind the
    region-sync fence and every begun handoff still completes."""
    _, _, engine = _run_engine(
        FLASH.with_(moves_per_client=32),
        elastic=ElasticConfig(
            interval_ms=300.0, threshold=1.2, hysteresis=1
        ),
    )
    assert len(engine.rebalance_events) >= 2
    bulk = sum(
        server.shard_stats.bulk_handoffs for server in engine.shard_servers
    )
    assert bulk > 0
    out = sum(
        server.shard_stats.handoffs_out for server in engine.shard_servers
    )
    into = sum(
        server.shard_stats.handoffs_in for server in engine.shard_servers
    )
    assert out > 0 and out == into
    assert not any(server.handoff.open for server in engine.shard_servers)
    assert not any(server.handoff.parked for server in engine.shard_servers)
    for client_id, client in engine.clients.items():
        assert not client._migrating
    _assert_drained(engine)
    audit = audit_sharded_run(engine)
    assert audit.consistent, audit.summary()


@pytest.mark.parametrize("crash_at_ms", [303.0, 340.0, 376.0, 400.0])
def test_epoch_retires_when_the_gaining_shard_dies_mid_bulk_handoff(crash_at_ms):
    """The first PartitionUpdate lands at t = 302 ms and makes shard 1
    bulk-hand clients 0, 3 and 10 to shard 2; they receive their
    HandoffPrepare ~75 ms later.  Shard 2 dying in between leaves them
    alive (they are not yet migrating toward it), so each handoff ends in
    the dead-target re-welcome — which used to forget the epoch's bulk
    set: shard 1 never reported its drain, the controller sat on pending
    version 1, and the run idled to its stop deadline (t = 126 800 ms).
    At 400 ms the clients already acknowledged and die with the shard:
    that handoff ends through the same place, by way of the eviction."""
    settings = FLASH.with_(
        moves_per_client=32,
        elastic=True,
        elastic_interval_ms=300.0,
        elastic_threshold=1.2,
        elastic_hysteresis=1,
        fault_plan=FaultPlan(crashes=parse_crash_plan(f"s2@{crash_at_ms:g}")),
    )
    engine = build_engine("seve", settings)
    start_run(engine, MoveWorkload(engine, engine.world, settings), settings)
    engine.run(until=settings.submit_horizon_ms)
    engine.run_to_quiescence()
    assert engine.crashed_shards == {2}
    assert engine.slice_quiescent()
    assert engine.sim.now < settings.submit_horizon_ms + 1_000.0
    survivors = [engine.shard_servers[shard] for shard in (0, 1, 3)]
    assert all(server.quiescent() for server in survivors)
    assert len(engine.rebalance_events) >= 1
    audit = audit_sharded_run(engine)
    assert audit.consistent, audit.summary()


@pytest.mark.slow
@pytest.mark.faults
def test_elastic_survives_lossy_transport_at_k4():
    """Client links drop/jitter/duplicate while the backbone rebalances
    underneath: drains, syncs, and audits must all still hold."""
    _, _, engine = _run_engine(
        FLASH,
        elastic=ElasticConfig(interval_ms=500.0, threshold=1.5),
        plan=LOSSY,
    )
    assert len(engine.rebalance_events) >= 1
    _assert_drained(engine)
    audit = audit_sharded_run(engine)
    assert audit.consistent, audit.summary()
    assert audit.order_violations == []


# ---------------------------------------------------------------------------
# Partition independence (docs/parallel.md)
# ---------------------------------------------------------------------------
@pytest.mark.slow
def test_partition_count_does_not_change_an_elastic_run():
    """One partition and two must apply partition updates in the same
    virtual order: identical rebalance log, per-shard rows and final
    stripes — the whole result surface, byte for byte."""
    one = run_simulation("seve", ELASTIC)
    two = run_simulation("seve", ELASTIC.with_(workers=2))
    assert result_key(one) == result_key(two)
    assert one.rebalances >= 1
    assert two.shard_audit.consistent, two.shard_audit.summary()
