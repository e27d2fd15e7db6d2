"""``repro.obs`` — the unified observability layer.

One :class:`Observer` rides along with a simulated run and collects
three kinds of telemetry (each individually optional):

* a **metrics registry** (:class:`~repro.obs.metrics.MetricsRegistry`)
  of counters, gauges, and fixed-bucket histograms — always on when an
  observer is attached;
* a **structured trace** (:class:`~repro.obs.trace.TraceRecorder`) of
  spans and instant events keyed on virtual time, exportable as Chrome
  ``trace_event`` JSON for ``chrome://tracing`` / Perfetto;
* a **per-phase profile** (:class:`PhaseProfile`) of event counts
  and simulated milliseconds — model outputs, not timings; the
  wall-clock profiler is the perf ledger's traced run
  (``python3 benchmarks/perf/run.py --workload W --seed S --trace 1``)
  — for the hot seams: simulator dispatch, host work-queue service, link
  transmit / ARQ retries, the server push-cycle phases (First Bound
  candidate scan, Algorithm 6 closure, batch build), Information Bound
  validation, and the client apply/retry paths.

The layer is **zero-overhead when disabled**: an observer is attached
once, as the run's ``Simulator.obs``, and every instrumented seam reads
it there and guards on ``obs is not None``, so the default (no
observer) run executes the identical unobserved code path — a
differential test pins this down byte-for-byte.  When enabled,
observation is read-only: the observer never schedules events, never
charges simulated cost, and never draws randomness, so an observed run
is byte-identical to an unobserved one (docs/observability.md states
the full contract).  Each event is counted once, by the layer it
happens in: the exported counters and the profile rows are read from
the layers' own stats at the end of the run (``COUNTERS``, ``PHASES``);
the per-event hooks only sample three histograms and record the trace.

Usage with the harness (or pass ``--trace-out``/``--metrics-out``/
``--profile`` to ``python -m repro run``)::

    from repro import SimulationSettings, run_simulation
    from repro.obs import Observer

    observer = Observer(trace=True, profile=True)
    result = run_simulation("seve", SimulationSettings(num_clients=8),
                            obs=observer)
    observer.trace.write_chrome("run.trace.json")
    print(result.profile["server.push.closure"]["count"])

Standalone (no engine required):

>>> obs = Observer(trace=True)
>>> obs.on_host_service(3, start_ms=500.0, cost_ms=7.44, queue_delay_ms=2.0)
>>> obs.metrics.histogram("host.queue_delay_ms").count
1
>>> len(obs.trace)
1
>>> COUNTERS["client.retries"]    # the stat the exported counter reads
'clients.retransmissions'
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.metrics import (
    LATENCY_BUCKETS_MS,
    SIZE_BUCKETS_BYTES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import TraceRecorder, load_chrome
from repro.types import ClientId, TimeMs

__all__ = [
    "Observer",
    "PhaseProfile",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "TraceRecorder",
    "load_chrome",
    "LATENCY_BUCKETS_MS",
    "SIZE_BUCKETS_BYTES",
    "PHASES",
    "COUNTERS",
]

#: Every counter an observed run exports but the backend's window
#: counters and the codec's, and the stat it reads once, at the end of
#: the run: ``rows.field``, summed over the rows (:func:`_stat`).  A
#: counter is written when its stat is non-zero — or, if
#: ``PRESENT_WITH`` names another counter, exactly when that one's is.
COUNTERS = {
    "sim.dispatched": "run.events",
    "host.items": "hosts.items_completed",
    "net.messages": "meter.total_messages",
    "net.bytes": "meter.total_bytes",
    "net.arq.retransmits": "meter.retransmissions",
    "net.arq.abandoned": "meter.messages_abandoned",
    "server.push.scans": "servers.push_cycles",
    "server.push_cycles": "servers.push_cycles",
    "server.push.entries": "servers.entries_built",
    "server.closures": "servers.closures_computed",
    "server.validations": "servers.validations",
    "server.actions_dropped": "bounds.dropped",
    "server.relays": "servers.actions_relayed",
    "server.shard.forwards": "shards.spans_forwarded",
    "server.shard.splices": "shards.spans_spliced",
    "server.shard.handoff.prepare": "shards.handoffs_out",
    "server.shard.handoff.transfer": "shards.handoff_transfers",
    "server.shard.handoff.adopt": "shards.handoffs_in",
    "server.hybrid.bundles": "hybrid.bundles_sent",
    "server.hybrid.deduplicated": "hybrid.deduplicated_entries",
    "client.applies": "clients.entries_applied",
    "client.retries": "clients.retransmissions",
}
PRESENT_WITH = {
    "net.bytes": "net.messages",
    "server.push.entries": "server.push_cycles",
    "server.hybrid.deduplicated": "server.hybrid.bundles",
}

#: The ``--profile`` phases (docs/observability.md's naming convention:
#: ``layer.component[.step]``), each read the same way as a counter:
#: its count stat and, where the phase is charged simulated CPU, the
#: stat of that charge.  A phase is listed when its count is non-zero.
PHASES = {
    "sim.dispatch": ("run.events", None),
    "host.service": ("hosts.items_completed", "hosts.cpu_time_used"),
    "net.transmit": ("meter.total_messages", None),
    "net.arq.retransmit": ("meter.retransmissions", None),
    "server.push.scan": ("servers.push_cycles", None),
    "server.push.closure": ("servers.closures_computed", "run.closure_cpu_ms"),
    "server.push.build": ("servers.push_cycles", "servers.build_cpu_ms"),
    "server.validate": ("servers.validations", "servers.validate_cpu_ms"),
    "server.relay": ("servers.actions_relayed", None),
    "client.apply": ("clients.entries_applied", "clients.apply_cpu_ms"),
    "client.retry": ("clients.retransmissions", None),
}


def _servers_with(attribute: str):
    return lambda run: [
        getattr(server, attribute)
        for server in run._servers()
        if getattr(server, attribute, None) is not None
    ]


#: The rows a stat path names, read off a finished engine or a
#: :class:`~repro.net.backend.MergedRun` (the surface
#: :class:`~repro.core.chassis.EngineChassis` declares).
_ROWS = {
    "run": lambda run: (run,),
    "meter": lambda run: (run.meter,),
    "hosts": lambda run: (*run.server_hosts.values(), *run.client_hosts.values()),
    "servers": _servers_with("stats"),
    "shards": _servers_with("shard_stats"),
    "hybrid": _servers_with("hybrid_stats"),
    "bounds": lambda run: [bound.stats for bound in _servers_with("info_bound")(run)],
    "clients": lambda run: (run.client_stats,),
}


def _stat(run, path: str) -> float:
    """The stat ``path`` (``rows.field``) of the finished ``run``,
    summed over its rows; a row without the field counts zero."""
    rows, name = path.split(".")
    return sum(getattr(row, name, 0) for row in _ROWS[rows](run))


class PhaseProfile:
    """Per-phase aggregation: count and simulated ms.

    ``sim_ms`` is virtual time attributed to the phase (the calibrated
    server/action charges).  How long our Python process spent in
    a phase is a different question, answered by the perf ledger's
    traced run (docs/performance.md).

    >>> profile = PhaseProfile()
    >>> profile.record("server.push.closure", sim_ms=0.04)
    >>> profile.record("server.push.closure", sim_ms=0.04)
    >>> profile.as_dict()["server.push.closure"]["count"]
    2
    """

    __slots__ = ("phases",)

    def __init__(self) -> None:
        #: phase -> [count, sim_ms]
        self.phases: Dict[str, List[float]] = {}

    def record(self, phase: str, *, sim_ms: float = 0.0, n: int = 1) -> None:
        """Fold one observation into ``phase``'s aggregate."""
        slot = self.phases.get(phase)
        if slot is None:
            self.phases[phase] = [n, sim_ms]
        else:
            slot[0] += n
            slot[1] += sim_ms

    def merge_from(self, other: "PhaseProfile") -> None:
        """Fold another profile's aggregates into this one.

        Used to combine per-worker profiles from the parallel backend
        into one report table.
        """
        for phase, (count, sim_ms) in other.phases.items():
            self.record(phase, sim_ms=sim_ms, n=count)

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """The breakdown as plain data, phase-name sorted."""
        return {
            phase: {"count": int(count), "sim_ms": sim_ms}
            for phase, (count, sim_ms) in sorted(self.phases.items())
        }


class Observer:
    """The facade every instrumented seam talks to.

    ``trace=True`` attaches a :class:`TraceRecorder`; ``profile=True``
    attaches a :class:`PhaseProfile`.  The metrics registry is always
    present.
    """

    def __init__(self, *, trace: bool = False, profile: bool = False) -> None:
        self.metrics = MetricsRegistry()
        self.trace: Optional[TraceRecorder] = TraceRecorder() if trace else None
        self.profile: Optional[PhaseProfile] = PhaseProfile() if profile else None

    def blank(self) -> "Observer":
        """An empty observer of this one's shape (same trace and
        profile switches), for a replica observed in another process."""
        return Observer(trace=self.trace is not None, profile=self.profile is not None)

    def merge_from(self, other: "Observer") -> None:
        """Fold another observer's telemetry into this one.

        The parallel backend gives each worker replica its own observer
        (an observer cannot cross process boundaries mid-run)
        and merges them here at the end: metrics add, profiles add, and
        trace events concatenate in partition order.  Telemetry kinds
        the receiving observer did not enable are skipped.
        """
        self.metrics.merge_from(other.metrics)
        if self.trace is not None and other.trace is not None:
            self.trace.merge_from(other.trace)
        if self.profile is not None and other.profile is not None:
            self.profile.merge_from(other.profile)

    # ------------------------------------------------------------------
    # Per-event seams: the three histograms and the trace.  Every count
    # is the run's own, read at the end (record_run_summary).
    # ------------------------------------------------------------------
    def on_host_service(
        self,
        host_id: ClientId,
        start_ms: TimeMs,
        cost_ms: TimeMs,
        queue_delay_ms: TimeMs,
    ) -> None:
        """One host work item finished its CPU service."""
        self.metrics.histogram("host.queue_delay_ms").record(queue_delay_ms)
        if self.trace is not None:
            self.trace.complete(
                "host.service", start_ms, cost_ms, track=f"host-{host_id}"
            )

    def on_link_transmit(self, size_bytes: int, queue_delay_ms: TimeMs) -> None:
        """One message accepted by a link for transmission."""
        self.metrics.histogram("net.queue_delay_ms").record(queue_delay_ms)
        self.metrics.histogram(
            "net.message_bytes", SIZE_BUCKETS_BYTES
        ).record(size_bytes)

    def _instant(self, name: str, now_ms: TimeMs, track: str, **args) -> None:
        if self.trace is not None:
            self.trace.instant(name, now_ms, track=track, args=args)

    def on_arq_retransmit(
        self, src: ClientId, dst: ClientId, now_ms: TimeMs, seq: int
    ) -> None:
        """The ARQ transport retransmitted one data packet."""
        self._instant("arq.retransmit", now_ms, "net", src=src, dst=dst, seq=seq)

    def on_arq_abandoned(self, src: ClientId, dst: ClientId, now_ms: TimeMs) -> None:
        """The ARQ transport gave up on one data packet."""
        self._instant("arq.abandoned", now_ms, "net", src=src, dst=dst)

    def on_push_scan(self, now_ms: TimeMs, candidates: int) -> None:
        """One First Bound nomination pass completed; ``candidates`` is
        how many queue positions now wait on clients' pending lists."""
        self._instant("push.scan", now_ms, "server", candidates=candidates)

    def on_push_build(
        self,
        now_ms: TimeMs,
        sim_cost_ms: float,
        batches: int,
        entries: int,
    ) -> None:
        """One push cycle finished building its batches."""
        if self.trace is not None:
            self.trace.complete(
                "push.cycle",
                now_ms,
                sim_cost_ms,
                track="server",
                args={"batches": batches, "entries": entries},
            )

    def on_validate(
        self, now_ms: TimeMs, sim_cost_ms: float, entries: int, dropped: int
    ) -> None:
        """One Information Bound validation tick (Algorithm 7)."""
        if self.trace is not None:
            self.trace.complete(
                "validate",
                now_ms,
                sim_cost_ms,
                track="server",
                args={"entries": entries, "dropped": dropped},
            )

    def on_shard_forward(self, now_ms: TimeMs, owner: int, involved: int) -> None:
        """An owner shard forwarded a spanning action to the sequencer."""
        self._instant("shard.forward", now_ms, f"shard-{owner}", involved=involved)

    def on_shard_splice(
        self, now_ms: TimeMs, shard: int, gsn: int, pos: int
    ) -> None:
        """A shard spliced a sequenced spanning action into its stream."""
        self._instant("shard.splice", now_ms, f"shard-{shard}", gsn=gsn, pos=pos)

    def on_shard_handoff(
        self,
        now_ms: TimeMs,
        client_id: ClientId,
        src_shard: int,
        dst_shard: int,
        stage: str,
    ) -> None:
        """One stage of a client handoff (``prepare``/``transfer``/
        ``adopt``) between shards."""
        self._instant(
            "shard.handoff", now_ms, f"shard-{src_shard}",
            client=client_id, to=dst_shard, stage=stage,
        )

    def on_hybrid_bundle(
        self, now_ms: TimeMs, members: int, deduplicated: int
    ) -> None:
        """The hybrid relay server shipped one deduplicated bundle."""
        self._instant(
            "hybrid.bundle", now_ms, "server",
            members=members, deduplicated=deduplicated,
        )

    def on_client_retry(
        self, client_id: ClientId, now_ms: TimeMs, attempt: int
    ) -> None:
        """A client resubmitted an unanswered action end-to-end."""
        self._instant("client.retry", now_ms, f"host-{client_id}", attempt=attempt)

    # ------------------------------------------------------------------
    # End-of-run summary
    # ------------------------------------------------------------------
    def record_run_summary(self, run) -> None:
        """Fold a finished run — an engine, or a sharded run's
        :class:`~repro.net.backend.MergedRun` — into the registry and
        the profile: every ``COUNTERS`` and ``PHASES`` row from the
        run's own stats, the ``TrafficMeter`` totals (``traffic.*``),
        the detectors' hit counts (``adversary.detect.*``), a
        ``response_ms`` histogram of stable response times, and the
        ``run.virtual_ms`` / ``run.events`` gauges."""
        counter = self.metrics.counter
        values = {name: _stat(run, path) for name, path in COUNTERS.items()}
        for name, value in values.items():
            if values[PRESENT_WITH.get(name, name)]:
                counter(name).inc(value)
        detected = run.detection_summary().get("detector_counts", {})
        for detector, count in detected.items():
            counter(f"adversary.detect.{detector}").inc(count)
        run.meter.export_metrics(self.metrics)
        self.metrics.histogram("response_ms").record_many(run.response_times.samples)
        self.metrics.gauge("run.virtual_ms").set(run.virtual_ms)
        self.metrics.gauge("run.events").set(run.events)
        if self.profile is not None:
            for phase, (count, sim_ms) in PHASES.items():
                n = _stat(run, count)
                if n:
                    charged = 0.0 if sim_ms is None else _stat(run, sim_ms)
                    self.profile.record(phase, sim_ms=charged, n=n)
