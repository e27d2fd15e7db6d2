"""Simulation settings — Table I of the paper, as a dataclass.

=====================  =========================================
Virtual world size     1000 x 1000
Number of walls        0 - 100,000
Number of clients      0 - 64
Average latency        238 ms
Maximum bandwidth      100 Kbps
Moves per client       100
Move generation rate   every 300 ms per client
Move effect range      10 units
Avatar visibility      30 units
Threshold              1.5 x avatar visibility
=====================  =========================================

Everything the paper leaves implicit (avatar speed, spawn layout, cost
calibration, ω, τ) is an explicit, documented field here, so every
experiment is reproducible from a single value + seed.

One declaration per run parameter
---------------------------------
A field of :class:`SimulationSettings` is the *only* place a run
parameter is written down.  Its default is Table I's, a literal here or
the *name* of the default of the per-layer config that consumes it
(``TestbedConfig.rtt_ms``, ``SeveConfig.omega``, ``ManhattanConfig.width``,
``ElasticConfig.threshold``, …); its
:func:`knob` metadata says how ``python -m repro run`` spells it
(``flag``, and ``cli`` where the CLI's default differs on purpose:
``--clients`` 32, ``--walls`` 10 000 and ``--moves`` 50 are a
laptop-sized run, not Table I), what ``--help`` says, which values
are legal (``choices``, ``min``, ``above``) and which per-layer config
field(s) receive it (``to``).  The CLI's flags (:mod:`repro.cli`), the
checks in ``__post_init__``, the copies into the layer configs
(:meth:`SimulationSettings.for_layer`) and docs/settings.md are all
derived from ``dataclasses.fields(SimulationSettings)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from math import isfinite
from typing import Optional

from repro.adversary import AdversaryPlan
from repro.analysis.sanitizer import MODES as SANITIZER_MODES
from repro.core.chassis import TestbedConfig
from repro.core.elastic import ElasticConfig
from repro.core.engine import SeveConfig
from repro.core.info_bound import POLICIES
from repro.errors import ConfigurationError
from repro.net.faults import FaultPlan, validate_crash_windows
from repro.world.manhattan import SPAWN_MODES, ManhattanConfig

#: The paper's calibration: ms of evaluation per 1000 visible walls.
PAPER_COST_PER_KWALL_MS = 6.95

#: Radius within which walls count as "visible" for the "walls" cost
#: model (58 units makes 100k walls yield ~1000 visible, matching the
#: paper's calibration point).
WALL_COST_RADIUS = 58.0


def knob(default, **spec):
    """A :class:`SimulationSettings` field and everything derived from
    it.  ``spec`` keys, all optional:

    ``flag``
        CLI spelling when it is not ``--`` + the field name with dashes.
    ``cli``
        The CLI's default where it differs from ``default`` on purpose.
    ``help``, ``group``, ``argparse``
        The flag's help text, its ``--help`` group, and extra
        ``add_argument`` keywords (``metavar``, ``nargs``, ``const``).
    ``choices`` / ``min`` / ``above``
        Legal values: one of ``choices``; ``>= min``; ``> above``
        (``None``, where a field allows it, passes the range checks).
    ``to``
        The per-layer config fields that receive the value, as
        space-separated ``layer`` or ``layer.field`` (a bare layer means
        a field of the same name); see :meth:`SimulationSettings.for_layer`.
    """
    return field(default=default, metadata=spec)


@dataclass(frozen=True)
class SimulationSettings:
    """One experiment's full parameterisation (defaults = Table I).

    >>> SimulationSettings(visibility=-1.0)
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: visibility must be >= 0, got -1.0
    >>> SimulationSettings(rtt_ms=150.0, seed=3).for_layer("testbed")["rtt_ms"]
    150.0
    """

    # -- world -----------------------------------------------------------
    world_width: float = knob(
        ManhattanConfig.width, above=0, to="manhattan.width sharding zoned",
        help="world extent along x (the axis shard stripes partition)",
    )
    world_height: float = knob(
        ManhattanConfig.height, above=0, to="manhattan.height zoned",
        help="world extent along y",
    )
    num_walls: int = knob(
        ManhattanConfig.num_walls, flag="--walls", cli=10_000, to="manhattan",
        help="number of walls (Table I: 0 - 100,000)",
    )
    num_clients: int = knob(
        64, flag="--clients", cli=32, min=0,
        help="number of clients, one avatar each (Table I: 0 - 64)",
    )
    #: The paper's max rate of change s.
    avatar_speed: float = knob(
        ManhattanConfig.avatar_speed, to="manhattan",
        help="avatar walking speed (world units/s)",
    )
    visibility: float = knob(
        ManhattanConfig.visibility, min=0,
        to="manhattan central.interest_radius zoned.interest_radius ring",
        help="avatar visibility: how far a client sees (world units)",
    )
    move_effect_range: float = knob(
        ManhattanConfig.effect_range, flag="--effect-range", min=0,
        to="manhattan.effect_range",
        help="move effect range: radius a move can influence (world units)",
    )
    spawn: str = knob(
        ManhattanConfig.spawn, choices=SPAWN_MODES, to="manhattan",
        help="spawn layout: central square, lattice (Figure 8), whole world",
    )
    spawn_extent: float = knob(
        ManhattanConfig.spawn_extent, min=0, to="manhattan",
        help="side of the 'cluster' spawn square",
    )
    spawn_spacing: float = knob(
        ManhattanConfig.spawn_spacing, to="manhattan",
        help="pitch of the 'grid' spawn lattice",
    )

    # -- network (EMULab emulation) ---------------------------------------
    rtt_ms: float = knob(
        TestbedConfig.rtt_ms, above=0, to="testbed",
        help="average client-server round-trip latency (ms)",
    )
    bandwidth_bps: Optional[float] = knob(
        TestbedConfig.bandwidth_bps, above=0, to="testbed",
        help="per-client link bandwidth in bits/s; 'none' = unbounded",
    )

    # -- workload ----------------------------------------------------------
    moves_per_client: int = knob(
        100, flag="--moves", cli=50, min=0, help="moves each client generates"
    )
    move_interval_ms: float = knob(
        300.0, above=0, help="move generation period per client (ms)"
    )

    # -- cost model ----------------------------------------------------------
    cost_model: str = knob(
        "fixed", choices=("fixed", "walls"),
        help="a move costs --move-cost-ms ('fixed') or "
        f"{PAPER_COST_PER_KWALL_MS} ms per 1000 walls within "
        f"{WALL_COST_RADIUS:g} units of the mover ('walls')",
    )
    #: The paper's measured average evaluation time per move at 100k walls.
    move_cost_ms: float = knob(
        7.44, min=0, help="CPU time one move evaluation costs a host (ms)"
    )
    eval_overhead_ms: float = knob(
        TestbedConfig.eval_overhead_ms, min=0, to="testbed",
        help="fixed synchronization overhead per action evaluation (ms)",
    )

    # -- protocol ----------------------------------------------------------
    omega: float = knob(
        SeveConfig.omega, to="seve",
        help="First Bound push period as a fraction of the RTT, in (0, 1)",
    )
    tick_ms: float = knob(
        SeveConfig.tick_ms, to="seve", help="server validation tick period (ms)"
    )
    #: Information Bound threshold; ``None`` = 1.5 x visibility (Table I).
    threshold: Optional[float] = knob(
        None, help="Information Bound chain threshold (default: 1.5 x --visibility)"
    )
    info_bound_policy: str = knob(
        SeveConfig.info_bound_policy, choices=POLICIES, to="seve",
        help="chain-breaking actions are dropped (Algorithm 7) or first "
        "delayed up to --max-delay-ticks (Section III-E)",
    )
    max_delay_ticks: int = knob(
        SeveConfig.max_delay_ticks, to="seve",
        help="validation rounds a delayed action may wait",
    )
    use_velocity_culling: bool = knob(
        SeveConfig.use_velocity_culling, to="seve",
        help="cull First Bound pushes by the receiver's velocity",
    )
    fault_tolerant: bool = knob(
        False,
        help="every client reports every completion (Section III-C); "
        "crash plans and adversary plans turn it on by themselves",
    )
    #: 1 = the classic single serializer; K > 1 requires a push mode
    #: (``seve`` / ``seve-naive``).  Crash and liveness fault plans are
    #: supported at every K (docs/control_plane.md): clients rejoin via
    #: the protocol-level hello path, and shard hosts recover from
    #: checkpoint+WAL.
    shards: int = knob(
        1, min=1, to="sharding",
        help="shard servers partitioning the world into vertical stripes "
        "(docs/sharding.md); requires a push-mode SEVE architecture",
    )
    #: "single" never times the lease out, so no lease message is ever
    #: sent.  Shard crash plans that kill shard 0 without a restart
    #: require "replicated".
    control_plane: str = knob(
        "single", choices=("single", "replicated"),
        help="spanning-action sequencer deployment (docs/control_plane.md): "
        "'single' pins the role to shard 0 (byte-identical to the "
        "pre-lease sequencer, but a crash of shard 0 is fatal); "
        "'replicated' grants it through a leased quorum that fails "
        "over when the holder's heartbeats stop",
    )
    #: Off takes the identical static-partition code path (the
    #: differential tests pin this).
    elastic: bool = knob(
        False, group="elastic",
        help="enable the live load-aware rebalancer: shard 0 collects "
        "per-shard load deltas and splits hot stripes / merges cold "
        "ones at run time (requires --shards > 1); off is "
        "byte-identical to the static partition",
    )
    elastic_interval_ms: float = knob(
        ElasticConfig.interval_ms, group="elastic", to="elastic.interval_ms",
        help="load-sampling period of the elastic controller (ms)",
    )
    elastic_threshold: float = knob(
        ElasticConfig.threshold, group="elastic", to="elastic.threshold",
        help="max/mean per-shard load ratio that counts a sampling "
        "round as imbalanced (> 1)",
    )
    elastic_hysteresis: int = knob(
        ElasticConfig.hysteresis, group="elastic", to="elastic.hysteresis",
        help="consecutive imbalanced rounds before a rebalance fires",
    )
    elastic_min_stripe: Optional[float] = knob(
        ElasticConfig.min_stripe, group="elastic", to="elastic.min_stripe",
        help="narrowest stripe a rebalance may produce, in world units "
        "(default: derived from the span-classification slack)",
    )
    #: ``None`` (the Python default; the CLI's is "off") defers to the
    #: process-wide ambient mode.  Only wired through the SEVE engines
    #: (the RS/WS contract is theirs).
    rwset_sanitizer: Optional[str] = knob(
        None, cli="off", choices=(None, *SANITIZER_MODES), to="seve",
        argparse=dict(nargs="?", const="raise", metavar="MODE"),
        help="check every store access during action evaluation against "
        "the declared RS/WS (docs/static_analysis.md); bare flag = "
        "'raise' (abort on first violation), 'report' collects them "
        "into the run report instead",
    )

    # -- faults (docs/fault_model.md) --------------------------------------
    #: Deterministic fault injection; ``None`` (or a null plan) keeps the
    #: network perfectly reliable and takes the identical code path.
    #: A non-null plan automatically enables the ARQ transport, client
    #: retries, and — when the plan schedules crashes — liveness
    #: eviction and fault-tolerant completions.
    fault_plan: Optional[FaultPlan] = knob(None, to="testbed")

    # -- adversaries (docs/adversary.md) ------------------------------------
    #: Per-client cheating models (``--adversary``); ``None`` (or a null
    #: plan) keeps every client honest and takes the identical code
    #: path.  A non-null plan substitutes seeded cheating clients, arms
    #: the server-side detection/quarantine layer, and forces
    #: fault-tolerant completions (so honest clients' completions can
    #: commit entries whose cheating originator was quarantined).  Only
    #: wired through the SEVE engines.
    adversary: Optional[AdversaryPlan] = knob(None, to="seve")

    # -- execution backend (docs/parallel.md) -------------------------------
    #: Virtual-time results are byte-identical between the two — the
    #: backend is a wall-clock choice, never a semantics choice; with
    #: one shard or one resolved worker ``parallel`` spawns nothing.
    backend: str = knob(
        "inproc", choices=("inproc", "parallel"),
        help="execution backend (docs/parallel.md): 'inproc' runs "
        "everything in this process, 'parallel' runs shard partitions "
        "in spawned worker processes; results are byte-identical",
    )
    #: Partition count of the window coordinator every sharded run goes
    #: through.  W changes wall-clock only (docs/parallel.md, "One
    #: drive, one clock", has the two footnotes: crash-window event
    #: tally, lossy-plan sampling).
    workers: int = knob(
        0, min=0,
        help="partition count for the windowed scheduler (0 = auto: "
        "1 for inproc, one per shard for parallel; clamped to --shards)",
    )
    #: Also the lower bound on the windowed scheduler's lookahead, so
    #: raising it trades cross-shard lag for fewer epoch barriers (see
    #: docs/parallel.md).
    backbone_latency_ms: float = knob(
        SeveConfig.backbone_latency_ms, above=0, to="seve",
        help="one-way latency of the shard-to-shard backbone links (ms)",
    )

    # -- run ------------------------------------------------------------------
    seed: int = knob(0, to="manhattan", help="seed of the world and the workload")
    drain_ms: float = knob(
        120_000.0, min=0, help="hard cap on post-workload drain time (ms)"
    )

    # -- observability (docs/observability.md) -----------------------------
    #: ``None`` disables tracing entirely.
    trace_out: Optional[str] = knob(
        None, group="obs", argparse=dict(metavar="PATH"),
        help="write a Chrome trace_event JSON file (open in Perfetto "
        "or chrome://tracing)",
    )
    metrics_out: Optional[str] = knob(
        None, group="obs", argparse=dict(metavar="PATH"),
        help="write the metrics-registry JSON export",
    )
    profile: bool = knob(
        False, group="obs",
        help="collect and print the per-phase count/sim-ms breakdown",
    )

    @property
    def wants_observer(self) -> bool:
        """Whether any observability output is requested."""
        return (
            self.trace_out is not None
            or self.metrics_out is not None
            or self.profile
        )

    def __post_init__(self) -> None:
        for declared in fields(self):
            value, spec = getattr(self, declared.name), declared.metadata
            if "choices" in spec and value not in spec["choices"]:
                raise ConfigurationError(
                    f"unknown {declared.name} {value!r}; expected one of "
                    f"{spec['choices']}"
                )
            if value is None:
                continue
            if isinstance(value, float) and not isfinite(value):
                raise ConfigurationError(f"{declared.name} must be finite, got {value}")
            if "min" in spec and value < spec["min"]:
                raise ConfigurationError(
                    f"{declared.name} must be >= {spec['min']}, got {value}"
                )
            if "above" in spec and value <= spec["above"]:
                raise ConfigurationError(
                    f"{declared.name} must be > {spec['above']}, got {value}"
                )
        if self.elastic and self.shards < 2:
            raise ConfigurationError(
                "elastic rebalancing needs shards > 1 (one stripe has "
                "nothing to split)"
            )
        if self.elastic:
            self.elastic_config()  # validate the knobs eagerly
        if self.fault_plan is not None and self.fault_plan.crashes:
            validate_crash_windows(self.fault_plan.crashes)
            if self.fault_plan.shard_crashes and self.shards < 2:
                raise ConfigurationError(
                    "shard crash windows require shards >= 2 (a one-shard "
                    "run has no survivor to keep serializing)"
                )
            for window in self.fault_plan.shard_crashes:
                if window.shard_index >= self.shards:
                    raise ConfigurationError(
                        f"crash plan targets shard {window.shard_index} "
                        f"but the run has only {self.shards} shard(s)"
                    )
                if (
                    window.shard_index == 0
                    and window.reconnect_at_ms is None
                    and self.control_plane == "single"
                ):
                    raise ConfigurationError(
                        "killing shard 0 permanently under the 'single' "
                        "control plane loses the sequencer forever; use "
                        "--control-plane replicated or schedule a restart"
                    )
        if self.adversary is not None and not isinstance(
            self.adversary, AdversaryPlan
        ):
            raise ConfigurationError(
                f"adversary must be an AdversaryPlan, "
                f"got {type(self.adversary).__name__}"
            )

    def for_layer(self, layer: str) -> dict:
        """The keyword arguments ``layer``'s config dataclass takes from
        this run: the value of every knob declared ``to=`` that layer,
        under the receiving field's name.  What a layer *computes* from
        the settings (a mode, ``effective_threshold``, the reliability
        trio) is spelled out by the caller next to the ``**``."""
        received = {}
        for declared in fields(self):
            for target in declared.metadata.get("to", "").split():
                name, _, renamed = target.partition(".")
                if name == layer:
                    received[renamed or declared.name] = getattr(self, declared.name)
        return received

    @property
    def adversary_active(self) -> bool:
        """Whether a non-null adversary plan is armed for this run."""
        return self.adversary is not None and not self.adversary.is_null

    @property
    def effective_threshold(self) -> float:
        """Table I's default: 1.5 x avatar visibility."""
        if self.threshold is not None:
            return self.threshold
        return 1.5 * self.visibility

    @property
    def workload_duration_ms(self) -> float:
        """Virtual time over which clients generate moves."""
        return self.moves_per_client * self.move_interval_ms

    @property
    def submit_horizon_ms(self) -> float:
        """Virtual time by which every client has submitted its quota
        (the workload plus two intervals of phase-offset slack); no run
        is declared quiescent before it."""
        return self.workload_duration_ms + 2 * self.move_interval_ms

    def make_observer(self):
        """A fresh :class:`repro.obs.Observer` shaped by the requested
        observability outputs, or ``None`` when none is requested."""
        if not self.wants_observer:
            return None
        from repro.obs import Observer

        return Observer(trace=self.trace_out is not None, profile=self.profile)

    def elastic_config(self) -> Optional[ElasticConfig]:
        """The :class:`~repro.core.elastic.ElasticConfig` for this run,
        or ``None`` when rebalancing is off."""
        return ElasticConfig(**self.for_layer("elastic")) if self.elastic else None

    def control_plane_config(self):
        """The :class:`~repro.core.control_plane.ControlPlaneConfig`
        for this run: the pinned lease under ``single``."""
        from repro.core.control_plane import PINNED_LEASE, ControlPlaneConfig

        if self.control_plane == "replicated":
            return ControlPlaneConfig()
        return PINNED_LEASE

    def manhattan_config(self) -> ManhattanConfig:
        """The world configuration this experiment runs on."""
        return ManhattanConfig(
            move_duration_s=self.move_interval_ms / 1000.0,
            **self.for_layer("manhattan"),
        )

    def with_clients(self, num_clients: int) -> "SimulationSettings":
        """This configuration with a different client count (sweeps)."""
        return replace(self, num_clients=num_clients)

    def with_(self, **changes) -> "SimulationSettings":
        """This configuration with arbitrary fields replaced."""
        return replace(self, **changes)
