"""Architecture factory: build any evaluated system from settings.

Architecture names
------------------
``central``
    The Central model (Second Life / WoW) — server-evaluated actions.
``broadcast``
    The Broadcast model (NPSNET / SIMNET) — relay to all, evaluate
    everywhere.
``ring``
    The RING-like model — visibility-filtered relay (inconsistent).
``seve``
    Full SEVE: Incomplete World + First Bound pushes + Information
    Bound dropping.
``seve-naive``
    SEVE without move dropping (First Bound only) — the "SEVE (without
    move dropping)" series of Figure 8.
``seve-basic``
    The first action-based protocol (Algorithms 1-3): every client
    evaluates everything.  Computationally equivalent to Broadcast but
    implemented with the optimistic/stable machinery.
``incomplete``
    The reactive Incomplete World Model (Algorithms 4-6, no pushes).
``locking``
    The Section II-B distributed-locking protocol (Project Darkstar
    style): lock request -> grant -> local execution -> effect
    broadcast, i.e. 2x RTT per conflicting transaction.
``timestamp``
    The Section II-B timestamp-ordered optimistic protocol: tentative
    local execution, server-side backward validation, abort + retry.
``zoned``
    Section II-A zoning: Central evaluation tiled over a 3x3 grid of
    zone servers; scales with spread-out players, collapses under
    crowding.
``seve-hybrid``
    Full SEVE with Section VII's hybrid P2P fan-out: push batches are
    deduplicated per relay group and forwarded by peer heads, trading
    server egress for one peer hop of latency.
"""

from __future__ import annotations

from repro.baselines.broadcast import BroadcastEngine
from repro.baselines.central import CentralEngine
from repro.baselines.common import BaselineConfig
from repro.baselines.locking import LockingEngine
from repro.baselines.ring import RingEngine
from repro.baselines.timestamp import TimestampEngine
from repro.baselines.zoned import ZonedCentralEngine
from repro.core.chassis import EngineChassis
from repro.core.engine import SeveConfig, SeveEngine
from repro.errors import ConfigurationError
from repro.harness.config import SimulationSettings
from repro.net.faults import LivenessConfig, ReliabilityConfig, RetryPolicy
from repro.world.manhattan import ManhattanWorld

#: All buildable architecture names.
ARCHITECTURES = (
    "central",
    "broadcast",
    "ring",
    "seve",
    "seve-naive",
    "seve-basic",
    "incomplete",
    "locking",
    "timestamp",
    "zoned",
    "seve-hybrid",
)

_SEVE_MODES = {
    "seve": "seve",
    "seve-naive": "first-bound",
    "seve-basic": "basic",
    "incomplete": "incomplete",
    "seve-hybrid": "hybrid",
}


def build_world(settings: SimulationSettings) -> ManhattanWorld:
    """The Manhattan People world for these settings."""
    return ManhattanWorld(settings.num_clients, settings.manhattan_config())


def _reliability_suite(settings: SimulationSettings):
    """The (reliability, retry, liveness) trio a fault plan demands.

    A ``None`` or null plan returns all-``None`` — the engines then take
    the identical code path they take with no plan at all (the
    differential-test contract).  A lossy/jittery plan enables the ARQ
    transport and client retries; scheduled crashes additionally enable
    heartbeat liveness.
    """
    plan = settings.fault_plan
    if plan is None or plan.is_null:
        return None, None, None
    reliability = ReliabilityConfig.for_rtt(settings.rtt_ms)
    retry = RetryPolicy.for_rtt(settings.rtt_ms)
    liveness = LivenessConfig() if plan.crashes else None
    return reliability, retry, liveness


def build_engine(
    architecture: str,
    settings: SimulationSettings,
    world: ManhattanWorld = None,
    *,
    obs=None,
) -> EngineChassis:
    """Assemble a ready-to-run engine for ``architecture``.

    ``world`` may be passed in to share one (expensively indexed) wall
    field across several runs of the same settings.  ``obs`` is an
    optional :class:`repro.obs.Observer` threaded through every layer of
    the built engine; ``None`` keeps the unobserved code paths.
    """
    if world is None:
        world = build_world(settings)
    reliability, retry, liveness = _reliability_suite(settings)
    if architecture in _SEVE_MODES:
        config = SeveConfig(
            mode=_SEVE_MODES[architecture],
            rtt_ms=settings.rtt_ms,
            bandwidth_bps=settings.bandwidth_bps,
            omega=settings.omega,
            tick_ms=settings.tick_ms,
            threshold=settings.effective_threshold,
            info_bound_policy=settings.info_bound_policy,
            max_delay_ticks=settings.max_delay_ticks,
            use_velocity_culling=settings.use_velocity_culling,
            # Crash plans force fault-tolerant completions: the server
            # must be able to commit actions whose originator died.
            # Adversary plans force them too: a quarantined cheater's
            # entries must commit from honest reporters.
            fault_tolerant=settings.fault_tolerant
            or bool(settings.fault_plan and settings.fault_plan.crashes)
            or settings.adversary_active,
            eval_overhead_ms=settings.eval_overhead_ms,
            fault_plan=settings.fault_plan,
            reliability=reliability,
            retry=retry,
            liveness=liveness,
            # The cross-shard consistency audit replays per-client
            # observation logs, so sharded runs always record them
            # (pure bookkeeping — never changes scheduling).
            record_observations=settings.shards > 1,
            backbone_latency_ms=settings.backbone_latency_ms,
            obs=obs,
            rwset_sanitizer=settings.rwset_sanitizer,
            adversary=settings.adversary,
        )
        if settings.shards > 1:
            from repro.core.sharded import ShardedSeveEngine, ShardingConfig

            if _SEVE_MODES[architecture] not in ("seve", "first-bound"):
                raise ConfigurationError(
                    f"--shards > 1 requires a push-mode SEVE architecture "
                    f"('seve' or 'seve-naive'); got {architecture!r}"
                )
            return ShardedSeveEngine(
                world,
                settings.num_clients,
                config,
                sharding=ShardingConfig(
                    shards=settings.shards,
                    world_width=settings.world_width,
                    elastic=settings.elastic_config(),
                    control=settings.control_plane_config(),
                ),
            )
        return SeveEngine(world, settings.num_clients, config)
    if settings.shards > 1:
        raise ConfigurationError(
            f"--shards > 1 requires a push-mode SEVE architecture "
            f"('seve' or 'seve-naive'); got {architecture!r}"
        )
    if settings.rwset_sanitizer not in (None, "off"):
        raise ConfigurationError(
            f"--rwset-sanitizer is only wired through the SEVE engines "
            f"(the RS/WS contract is theirs); got {architecture!r}"
        )
    if settings.adversary_active:
        raise ConfigurationError(
            f"--adversary is only wired through the SEVE engines "
            f"(the detection layer lives on their validation path); "
            f"got {architecture!r}"
        )
    baseline_config = BaselineConfig(
        rtt_ms=settings.rtt_ms,
        bandwidth_bps=settings.bandwidth_bps,
        eval_overhead_ms=settings.eval_overhead_ms,
        fault_plan=settings.fault_plan,
        reliability=reliability,
        retry=retry,
        liveness=liveness,
        obs=obs,
    )
    if architecture == "central":
        return CentralEngine(
            world,
            settings.num_clients,
            baseline_config,
            interest_radius=settings.visibility,
        )
    if architecture == "broadcast":
        return BroadcastEngine(world, settings.num_clients, baseline_config)
    if architecture == "locking":
        return LockingEngine(world, settings.num_clients, baseline_config)
    if architecture == "timestamp":
        return TimestampEngine(world, settings.num_clients, baseline_config)
    if architecture == "zoned":
        return ZonedCentralEngine(
            world,
            settings.num_clients,
            baseline_config,
            zone_grid=3,
            world_width=settings.world_width,
            world_height=settings.world_height,
            interest_radius=settings.visibility,
        )
    if architecture == "ring":
        return RingEngine(
            world,
            settings.num_clients,
            baseline_config,
            visibility=settings.visibility,
        )
    raise ConfigurationError(
        f"unknown architecture {architecture!r}; expected one of {ARCHITECTURES}"
    )
