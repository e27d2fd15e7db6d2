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

from functools import partial

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


#: Baseline architecture -> its engine.  Besides the shared testbed
#: config each takes the knobs the settings declare ``to=`` its name
#: (``visibility`` is Central's and Zoned's ``interest_radius``); the
#: zoned deployment is the docstring's 3x3 grid.
_BASELINES = {
    "central": CentralEngine,
    "broadcast": BroadcastEngine,
    "ring": RingEngine,
    "locking": LockingEngine,
    "timestamp": TimestampEngine,
    "zoned": partial(ZonedCentralEngine, zone_grid=3),
}


def build_world(settings: SimulationSettings) -> ManhattanWorld:
    """The Manhattan People world for these settings."""
    return ManhattanWorld(settings.num_clients, settings.manhattan_config())


def _testbed(settings: SimulationSettings, obs) -> dict:
    """The :class:`~repro.core.chassis.TestbedConfig` fields of a run:
    the knobs the settings declare ``to=`` it, the observer, and the
    (reliability, retry, liveness) trio a fault plan demands.

    A ``None`` or null plan leaves the trio at ``None`` — the engines
    then take the identical code path they take with no plan at all (the
    differential-test contract).  A lossy/jittery plan enables the ARQ
    transport and client retries; scheduled crashes additionally enable
    heartbeat liveness.
    """
    testbed = dict(settings.for_layer("testbed"), obs=obs)
    plan = settings.fault_plan
    if plan is not None and not plan.is_null:
        testbed.update(
            reliability=ReliabilityConfig.for_rtt(settings.rtt_ms),
            retry=RetryPolicy.for_rtt(settings.rtt_ms),
            liveness=LivenessConfig() if plan.crashes else None,
        )
    return testbed


def seve_config(
    settings: SimulationSettings, mode: str, *, obs=None, **overrides
) -> SeveConfig:
    """The :class:`SeveConfig` of a ``mode`` engine for these settings:
    the testbed fields, every knob declared ``to=`` the SEVE layer, and
    what is computed from several; ``overrides`` replace any of them
    (the differential tests pin ``record_observations=True``)."""
    config = dict(
        _testbed(settings, obs),
        **settings.for_layer("seve"),
        mode=mode,
        threshold=settings.effective_threshold,
        # Crash plans force fault-tolerant completions: the server
        # must be able to commit actions whose originator died.
        # Adversary plans force them too: a quarantined cheater's
        # entries must commit from honest reporters.
        fault_tolerant=settings.fault_tolerant
        or bool(settings.fault_plan and settings.fault_plan.crashes)
        or settings.adversary_active,
        # The cross-shard consistency audit replays per-client
        # observation logs, so sharded runs always record them
        # (pure bookkeeping — never changes scheduling).
        record_observations=settings.shards > 1,
    )
    config.update(overrides)
    return SeveConfig(**config)


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
    if architecture not in ARCHITECTURES:
        raise ConfigurationError(
            f"unknown architecture {architecture!r}; expected one of {ARCHITECTURES}"
        )
    if world is None:
        world = build_world(settings)
    mode = _SEVE_MODES.get(architecture)
    if settings.shards > 1 and mode not in ("seve", "first-bound"):
        raise ConfigurationError(
            f"--shards > 1 requires a push-mode SEVE architecture "
            f"('seve' or 'seve-naive'); got {architecture!r}"
        )
    if mode is not None:
        config = seve_config(settings, mode, obs=obs)
        if settings.shards > 1:
            from repro.core.sharded import ShardedSeveEngine, ShardingConfig

            return ShardedSeveEngine(
                world,
                settings.num_clients,
                config,
                sharding=ShardingConfig(
                    elastic=settings.elastic_config(),
                    control=settings.control_plane_config(),
                    **settings.for_layer("sharding"),
                ),
            )
        return SeveEngine(world, settings.num_clients, config)
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
    return _BASELINES[architecture](
        world,
        settings.num_clients,
        BaselineConfig(**_testbed(settings, obs)),
        **settings.for_layer(architecture),
    )
