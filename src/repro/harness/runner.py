"""End-to-end run driver: build, drive, drain, measure.

:func:`run_simulation` is the single entry point every benchmark and
example uses: it assembles an architecture, installs the Table I move
workload, runs the virtual clock until the system quiesces, and returns
a :class:`RunResult` with the measurements the paper's tables and
figures report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.harness.architectures import build_engine, build_world
from repro.harness.config import SimulationSettings
from repro.harness.workload import MoveWorkload, start_run
from repro.metrics.consistency import ConsistencyReport
from repro.net.stats import SummaryStats
from repro.types import shard_host_id
from repro.world.manhattan import ManhattanWorld


@dataclass
class RunResult:
    """Measurements of one simulation run."""

    architecture: str
    settings: SimulationSettings
    #: Stable response times (ms) as observed by clients.
    response: SummaryStats
    #: Total bytes crossing the network, in KB (all links).
    total_traffic_kb: float
    #: Mean per-client traffic (sent + received), in KB — the unit of
    #: the paper's Figure 9.
    client_traffic_kb: float
    #: Server-side traffic (sent + received), in KB.
    server_traffic_kb: float
    #: Moves dropped by the Information Bound Model, in percent of
    #: submissions (Table II / Figure 8).
    drop_percent: float
    #: Mean number of other avatars visible at move-planning time
    #: (Figure 8's x-axis).
    avg_visible: float
    #: Mean per-move evaluation cost that the workload realised (ms).
    avg_move_cost_ms: float
    #: Theorem 1 verdict over all client replicas at quiescence.
    consistency: Optional[ConsistencyReport]
    #: Virtual milliseconds the run spanned.
    virtual_ms: float
    #: Wall-clock seconds the simulation took to execute.
    wall_seconds: float
    #: Simulator events dispatched.
    events: int
    #: Moves the workload submitted.
    moves_submitted: int
    #: Confirmed stable responses observed.
    responses_observed: int
    #: Total simulated CPU-milliseconds burned across all hosts.
    total_cpu_ms: float = 0.0
    #: Simulated CPU-milliseconds the server spent computing transitive
    #: closures (0 for architectures without closures) — the Figure 10
    #: "runtime overhead of our strongly consistent approach".
    closure_cpu_ms: float = 0.0
    # -- fault injection (docs/fault_model.md); all zero without a plan --
    #: Messages the fault plan dropped on the wire.
    messages_dropped: int = 0
    #: Extra deliveries the fault plan duplicated.
    messages_duplicated: int = 0
    #: ARQ data-packet retransmissions.
    retransmissions: int = 0
    #: Clients the server's liveness sweep presumed dead (Section III-C).
    clients_evicted: int = 0
    #: Rendered RW-set sanitizer violations (``--rwset-sanitizer
    #: report``; see docs/static_analysis.md).  Empty when the sanitizer
    #: was off or the run was clean; ``raise`` mode never gets here —
    #: the first violation aborts the run.
    rwset_violations: tuple = ()
    #: Per-phase breakdown (``--profile``): phase name ->
    #: {count, sim_ms}.  ``None`` when profiling was off.
    profile: Optional[Dict[str, Dict[str, float]]] = None
    #: Cross-shard consistency audit (sharded runs only; see
    #: :mod:`repro.metrics.shard_audit`).
    shard_audit: Optional[object] = None
    #: Per-shard summary rows for sharded runs: one dict per shard with
    #: committed/serialized counts, cross-shard message counters, and
    #: the shard host's simulated CPU time.  ``None`` for single-server
    #: architectures.
    shard_rows: Optional[list] = None
    # -- elastic rebalancing (docs/elasticity.md); empty without --elastic --
    #: One dict per committed partition change, from the controller's
    #: log: {version, at_ms, imbalance, boundaries}.
    rebalance_events: tuple = ()
    # -- replicated control plane (docs/control_plane.md) --
    #: Which sequencer the run used: "single" or "replicated".
    control_plane: str = "single"
    #: One dict per completed gsn-lease transfer:
    #: {term, holder, at_ms, latency_ms}.  Empty unless the replicated
    #: control plane actually failed over.
    failover_events: tuple = ()
    # -- adversaries (docs/adversary.md); all empty without a plan --
    #: One :class:`repro.core.detection.DetectionRecord` per (detector,
    #: client) pair the server-side cheat detection flagged.
    detection_records: tuple = ()
    #: Per-detector raw hit counts (every observation, not deduplicated);
    #: ``None`` when no adversary plan was armed.
    detector_counts: Optional[Dict[str, int]] = None
    #: Clients the detection layer quarantined, in id order.
    clients_quarantined: tuple = ()
    #: Admitted-write footprint per quarantined client — how many
    #: distinct objects the server let the cheater name as write targets
    #: before detection caught up (0 for cheats rejected at admission);
    #: ``None`` when no adversary plan was armed.
    blast_radius: Optional[Dict[int, int]] = None

    @property
    def rebalances(self) -> int:
        """Partition changes the elastic controller committed."""
        return len(self.rebalance_events)

    @property
    def failovers(self) -> int:
        """Completed gsn-lease transfers (replicated control plane)."""
        return len(self.failover_events)

    @property
    def cheats_detected(self) -> int:
        """Distinct (detector, client) pairs the server flagged."""
        return len(self.detection_records)

    @property
    def closure_overhead_percent(self) -> float:
        """Closure computation as a share of all CPU work."""
        if self.total_cpu_ms <= 0:
            return 0.0
        return 100.0 * self.closure_cpu_ms / self.total_cpu_ms

    @property
    def mean_response_ms(self) -> float:
        """Mean stable response time (ms) — the main figure metric."""
        return self.response.mean


def run_simulation(
    architecture: str,
    settings: SimulationSettings,
    *,
    world: Optional[ManhattanWorld] = None,
    check_consistency: bool = True,
    obs=None,
) -> RunResult:
    """Run one architecture under the Table I workload and measure it.

    ``obs`` is an optional pre-built :class:`repro.obs.Observer`; when
    ``None``, one is constructed automatically if the settings request
    any observability output (``trace_out``/``metrics_out``/``profile``)
    and the requested exports are written at the end of the run.

    A sharded run (``settings.shards > 1``) always goes through the
    window coordinator of :mod:`repro.net.backend`, as one partition or
    several; ``settings.backend`` and ``settings.workers`` only choose
    how that executes on real hardware (docs/parallel.md) and never
    change a virtual-time result.  Single-serializer runs use the
    per-event loop below.  Partition replicas build their own worlds,
    so a pre-built ``world`` serves single-serializer runs only.
    """
    started = time.perf_counter()
    if obs is None:
        obs = settings.make_observer()
    plan = settings.fault_plan
    faults_active = plan is not None and not plan.is_null

    if settings.shards > 1:
        from repro.net.backend import run_partitioned

        engine, workload_stats = run_partitioned(
            architecture,
            settings,
            parallel=settings.backend == "parallel",
            obs=obs,
        )
    else:
        if world is None:
            world = build_world(settings)
        engine = build_engine(architecture, settings, world, obs=obs)
        workload = MoveWorkload(engine, world, settings)
        start_run(engine, workload, settings)
        engine.run(until=settings.submit_horizon_ms)
        engine.run_to_quiescence(max_extra_ms=settings.drain_ms)
        workload_stats = workload.stats

    # Everything below reads the finished run through the surface
    # repro.core.chassis.EngineChassis declares.
    consistency = None
    shard_audit = None
    if check_consistency:
        # Crashed/evicted clients are excluded: the paper's guarantee
        # (Section III-C) covers the surviving replicas only.  The same
        # holds for quarantined cheaters — their replicas lied by
        # construction, so Theorem 1 is asserted over the honest rest.
        client_ids = (
            engine.live_client_ids()
            if faults_active or settings.adversary_active
            else engine.clients.keys()
        )
        consistency, shard_audit = engine.consistency_report(
            {client_id: engine.clients[client_id].stable for client_id in client_ids}
        )

    meter = engine.meter
    num_clients = max(1, len(engine.clients))
    client_kb = (
        sum(meter.host_bytes(client_id) for client_id in engine.clients)
        / num_clients
        / 1024.0
    )
    samples = workload_stats.visible_samples
    costs = workload_stats.costs
    total_cpu = sum(
        host.cpu_time_used for host in engine.server_hosts.values()
    ) + sum(host.cpu_time_used for host in engine.client_hosts.values())
    server_traffic_kb = (
        sum(meter.host_bytes(shard_host_id(shard)) for shard in engine.server_hosts)
        / 1024.0
    )
    profile = None
    if obs is not None:
        obs.record_run_summary(
            meter=meter,
            response_samples=engine.response_times.samples,
            virtual_ms=engine.virtual_ms,
            events=engine.events,
        )
        if settings.trace_out is not None and obs.trace is not None:
            obs.trace.write_chrome(settings.trace_out)
        if settings.metrics_out is not None:
            obs.metrics.write_json(settings.metrics_out)
        if obs.profile is not None:
            profile = obs.profile.as_dict()
    return RunResult(
        architecture=architecture,
        settings=settings,
        response=engine.response_times.summary(),
        total_traffic_kb=meter.total_kb,
        client_traffic_kb=client_kb,
        server_traffic_kb=server_traffic_kb,
        drop_percent=engine.drop_percent,
        avg_visible=(sum(samples) / len(samples)) if samples else 0.0,
        avg_move_cost_ms=(sum(costs) / len(costs)) if costs else 0.0,
        consistency=consistency,
        virtual_ms=engine.virtual_ms,
        wall_seconds=time.perf_counter() - started,
        events=engine.events,
        moves_submitted=workload_stats.moves_submitted,
        responses_observed=engine.response_times.summary().count,
        total_cpu_ms=total_cpu,
        closure_cpu_ms=engine.closure_cpu_ms,
        messages_dropped=meter.messages_dropped,
        messages_duplicated=meter.messages_duplicated,
        retransmissions=meter.retransmissions,
        clients_evicted=engine.clients_evicted,
        rwset_violations=engine.rwset_violations,
        profile=profile,
        shard_audit=shard_audit,
        shard_rows=engine.shard_rows,
        rebalance_events=tuple(engine.rebalance_events),
        control_plane=settings.control_plane,
        failover_events=tuple(event.to_dict() for event in engine.failover_events),
        **engine.detection_summary(),
    )
