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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.adversary import AdversaryPlan
from repro.errors import ConfigurationError
from repro.net.faults import FaultPlan, validate_crash_windows
from repro.world.manhattan import ManhattanConfig

#: The paper's measured average evaluation time per move at 100k walls.
PAPER_MOVE_COST_MS = 7.44

#: The paper's calibration: ms of evaluation per 1000 visible walls.
PAPER_COST_PER_KWALL_MS = 6.95

#: Radius within which walls count as "visible" for the "walls" cost
#: model (58 units makes 100k walls yield ~1000 visible, matching the
#: paper's calibration point).
WALL_COST_RADIUS = 58.0


@dataclass(frozen=True)
class SimulationSettings:
    """One experiment's full parameterisation (defaults = Table I)."""

    # -- world -----------------------------------------------------------
    world_width: float = 1000.0
    world_height: float = 1000.0
    num_walls: int = 100_000
    num_clients: int = 64
    #: Avatar walking speed (units/s) — the paper's max rate of change s.
    avatar_speed: float = 10.0
    visibility: float = 30.0
    move_effect_range: float = 10.0
    #: Spawn layout: "cluster" (central square) or "grid" (Figure 8).
    spawn: str = "cluster"
    spawn_extent: float = 160.0
    spawn_spacing: float = 4.0

    # -- network (EMULab emulation) ---------------------------------------
    rtt_ms: float = 238.0
    bandwidth_bps: Optional[float] = 100_000.0

    # -- workload ----------------------------------------------------------
    moves_per_client: int = 100
    move_interval_ms: float = 300.0

    # -- cost model ----------------------------------------------------------
    #: "fixed": every move costs ``move_cost_ms``.  "walls": cost scales
    #: with the walls within ``WALL_COST_RADIUS`` of the mover (the
    #: paper's 6.95 ms per 1000 visible walls).
    cost_model: str = "fixed"
    move_cost_ms: float = PAPER_MOVE_COST_MS
    #: Fixed synchronization/bookkeeping overhead per action evaluation
    #: (the paper's ~60 ms per 32-action round => ~1.9 ms/action).
    eval_overhead_ms: float = 1.9

    # -- protocol ----------------------------------------------------------
    omega: float = 0.5
    tick_ms: float = 100.0
    #: Information Bound threshold; ``None`` = 1.5 x visibility (Table I).
    threshold: Optional[float] = None
    #: Chain-breaking policy: "drop" (Algorithm 7) or "delay"
    #: (Section III-E's sketched alternative).
    info_bound_policy: str = "drop"
    max_delay_ticks: int = 3
    use_velocity_culling: bool = False
    fault_tolerant: bool = False
    #: Shard servers partitioning the world into vertical stripes
    #: (:mod:`repro.core.sharded`).  1 = the classic single serializer;
    #: K > 1 requires a push mode (``seve`` / ``seve-naive``).  Crash
    #: and liveness fault plans are supported at every K
    #: (docs/control_plane.md): clients rejoin via the protocol-level
    #: hello path, and shard hosts recover from checkpoint+WAL.
    shards: int = 1
    #: Spanning-action control plane (docs/control_plane.md): "single"
    #: pins the gsn lease to shard 0 (it never times out, so no lease
    #: message is ever sent), "replicated" arms heartbeat-driven quorum
    #: failover so sequencing survives the leaseholder's crash.  Shard
    #: crash plans that kill shard 0 without a restart require
    #: "replicated".
    control_plane: str = "single"
    #: Live load-aware rebalancing of the shard stripes (``--elastic``;
    #: docs/elasticity.md): shard 0 collects per-shard load deltas and
    #: splits hot stripes / merges cold ones at run time.  Requires
    #: ``shards > 1``.  Off takes the identical static-partition code
    #: path (byte-identical; the differential tests pin this down).
    elastic: bool = False
    #: Load-sampling period of the elastic controller (``--elastic-interval-ms``).
    elastic_interval_ms: float = 2000.0
    #: max/mean load ratio that counts a round as imbalanced
    #: (``--elastic-threshold``).
    elastic_threshold: float = 2.0
    #: Consecutive imbalanced rounds before a rebalance fires
    #: (``--elastic-hysteresis``).
    elastic_hysteresis: int = 2
    #: Narrowest stripe a rebalance may produce
    #: (``--elastic-min-stripe``); ``None`` derives it from the
    #: span-classification slack.
    elastic_min_stripe: Optional[float] = None
    #: Dynamic RW-set sanitizer mode (``--rwset-sanitizer``; see
    #: docs/static_analysis.md): "raise" aborts on the first undeclared
    #: store access during an apply, "report" collects violations into
    #: ``RunResult.rwset_violations``, "off" disables, ``None`` defers
    #: to the process-wide ambient default.  Only wired through the
    #: SEVE engines (the RS/WS contract is theirs).
    rwset_sanitizer: Optional[str] = None

    # -- faults (docs/fault_model.md) --------------------------------------
    #: Deterministic fault injection; ``None`` (or a null plan) keeps the
    #: network perfectly reliable and takes the identical code path.
    #: A non-null plan automatically enables the ARQ transport, client
    #: retries, and — when the plan schedules crashes — liveness
    #: eviction and fault-tolerant completions.
    fault_plan: Optional[FaultPlan] = None

    # -- adversaries (docs/adversary.md) ------------------------------------
    #: Per-client cheating models (``--adversary``); ``None`` (or a null
    #: plan) keeps every client honest and takes the identical code
    #: path.  A non-null plan substitutes seeded cheating clients, arms
    #: the server-side detection/quarantine layer, and forces
    #: fault-tolerant completions (so honest clients' completions can
    #: commit entries whose cheating originator was quarantined).  Only
    #: wired through the SEVE engines.
    adversary: Optional["AdversaryPlan"] = None

    # -- execution backend (docs/parallel.md) -------------------------------
    #: How the run executes on real hardware: "inproc" (everything in
    #: this process) or "parallel" (spawned ``multiprocessing`` workers).
    #: Virtual-time results are byte-identical between the two — the
    #: backend is a wall-clock choice, never a semantics choice; with
    #: one shard or one resolved worker ``parallel`` spawns nothing.
    backend: str = "inproc"
    #: Partition count of the window coordinator every sharded run goes
    #: through (docs/parallel.md).  0 = auto: one partition for
    #: ``inproc`` and one worker per shard for ``parallel``.  Explicit
    #: counts are clamped to the shard count.  W changes wall-clock
    #: only (docs/parallel.md, "One drive, one clock", has the two
    #: footnotes: crash-window event tally, lossy-plan sampling).
    workers: int = 0
    #: One-way latency (ms) of the server-to-server backbone links used
    #: by cross-shard forwarding.  Also the lower bound on the windowed
    #: scheduler's lookahead, so raising it trades cross-shard lag for
    #: fewer epoch barriers (see docs/parallel.md).
    backbone_latency_ms: float = 1.0

    # -- run ------------------------------------------------------------------
    seed: int = 0
    #: Hard cap on post-workload drain time.
    drain_ms: float = 120_000.0

    # -- observability (docs/observability.md) -----------------------------
    #: Write a Chrome ``trace_event`` JSON file here (``--trace-out``);
    #: ``None`` disables tracing entirely.
    trace_out: Optional[str] = None
    #: Write the metrics-registry JSON export here (``--metrics-out``).
    metrics_out: Optional[str] = None
    #: Collect the per-phase count/sim-ms breakdown (``--profile``).
    profile: bool = False

    @property
    def wants_observer(self) -> bool:
        """Whether any observability output is requested."""
        return (
            self.trace_out is not None
            or self.metrics_out is not None
            or self.profile
        )

    def __post_init__(self) -> None:
        if self.cost_model not in ("fixed", "walls"):
            raise ConfigurationError(f"unknown cost model {self.cost_model!r}")
        if self.moves_per_client < 0:
            raise ConfigurationError("moves_per_client must be >= 0")
        if self.move_interval_ms <= 0:
            raise ConfigurationError("move_interval_ms must be positive")
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.elastic and self.shards < 2:
            raise ConfigurationError(
                "elastic rebalancing needs shards > 1 (one stripe has "
                "nothing to split)"
            )
        if self.elastic:
            self.elastic_config()  # validate the knobs eagerly
        if self.control_plane not in ("single", "replicated"):
            raise ConfigurationError(
                f"unknown control_plane {self.control_plane!r}; "
                "expected 'single' or 'replicated'"
            )
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
        if self.rwset_sanitizer not in (None, "off", "report", "raise"):
            raise ConfigurationError(
                f"unknown rwset_sanitizer {self.rwset_sanitizer!r}; "
                "expected None, 'off', 'report', or 'raise'"
            )
        if self.backend not in ("inproc", "parallel"):
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; "
                "expected 'inproc' or 'parallel'"
            )
        if self.workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0 (0 = auto), got {self.workers}"
            )
        if self.backbone_latency_ms <= 0:
            raise ConfigurationError(
                "backbone_latency_ms must be positive, got "
                f"{self.backbone_latency_ms}"
            )
        if self.adversary is not None and not isinstance(
            self.adversary, AdversaryPlan
        ):
            raise ConfigurationError(
                f"adversary must be an AdversaryPlan, "
                f"got {type(self.adversary).__name__}"
            )

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

    def elastic_config(self):
        """The :class:`~repro.core.elastic.ElasticConfig` for this run,
        or ``None`` when rebalancing is off."""
        if not self.elastic:
            return None
        from repro.core.elastic import ElasticConfig

        return ElasticConfig(
            interval_ms=self.elastic_interval_ms,
            threshold=self.elastic_threshold,
            hysteresis=self.elastic_hysteresis,
            min_stripe=self.elastic_min_stripe,
        )

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
            width=self.world_width,
            height=self.world_height,
            num_walls=self.num_walls,
            avatar_speed=self.avatar_speed,
            visibility=self.visibility,
            effect_range=self.move_effect_range,
            move_duration_s=self.move_interval_ms / 1000.0,
            spawn=self.spawn,
            spawn_extent=self.spawn_extent,
            spawn_spacing=self.spawn_spacing,
            seed=self.seed,
        )

    def with_clients(self, num_clients: int) -> "SimulationSettings":
        """This configuration with a different client count (sweeps)."""
        return replace(self, num_clients=num_clients)

    def with_(self, **changes) -> "SimulationSettings":
        """This configuration with arbitrary fields replaced."""
        return replace(self, **changes)
