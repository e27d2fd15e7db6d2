"""``repro.obs`` — the unified observability layer.

One :class:`Observer` rides along with a simulated run and collects
three kinds of telemetry (each individually optional):

* a **metrics registry** (:class:`~repro.obs.metrics.MetricsRegistry`)
  of counters, gauges, and fixed-bucket histograms — always on when an
  observer is attached;
* a **structured trace** (:class:`~repro.obs.trace.TraceRecorder`) of
  spans and instant events keyed on virtual time, exportable as Chrome
  ``trace_event`` JSON for ``chrome://tracing`` / Perfetto;
* a **per-phase profile** (:class:`PhaseProfile`) aggregating event
  counts and simulated milliseconds — model outputs, not timings; the
  wall-clock profiler is the perf ledger's traced run
  (``python3 benchmarks/perf/run.py --workload W --seed S --trace 1``)
  — for the hot seams: simulator dispatch, host work-queue service, link
  transmit / ARQ retries, the server push-cycle phases (First Bound
  candidate scan, Algorithm 6 closure, batch build), Information Bound
  validation, and the client apply/retry paths.

The layer is **zero-overhead when disabled**: every instrumented seam
guards on ``obs is not None``, so the default (no observer) run executes
the identical pre-observability code path — a differential test pins
this down byte-for-byte.  When enabled, observation is read-only: the
observer never schedules events, never charges simulated cost, and
never draws randomness, so an observed run is byte-identical to an
unobserved one (docs/observability.md states the full contract).

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

>>> obs = Observer(trace=True, profile=True)
>>> obs.on_client_apply(client_id=3, now_ms=500.0, cost_ms=7.44)
>>> obs.metrics.counter("client.applies").value
1
>>> obs.profile.as_dict()["client.apply"]["sim_ms"]
7.44
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
]

#: Canonical phase names (docs/observability.md's naming convention):
#: ``layer.component[.step]``, lowercase, dot-separated.
PHASES = (
    "sim.dispatch",
    "host.service",
    "net.transmit",
    "net.arq.retransmit",
    "server.push.scan",
    "server.push.closure",
    "server.push.build",
    "server.validate",
    "server.relay",
    "client.apply",
    "client.retry",
)


class PhaseProfile:
    """Per-phase aggregation: count and simulated ms.

    ``sim_ms`` is virtual time attributed to the phase (the calibrated
    ServerCosts/action charges).  How long our Python process spent in
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
    # Simulator / host / network seams
    # ------------------------------------------------------------------
    def on_dispatch(self) -> None:
        """One simulator event dispatched."""
        self.metrics.counter("sim.dispatched").inc()
        if self.profile is not None:
            self.profile.record("sim.dispatch")

    def on_host_service(
        self,
        host_id: ClientId,
        start_ms: TimeMs,
        cost_ms: TimeMs,
        queue_delay_ms: TimeMs,
    ) -> None:
        """One host work item finished its CPU service."""
        self.metrics.counter("host.items").inc()
        self.metrics.histogram("host.queue_delay_ms").record(queue_delay_ms)
        if self.profile is not None:
            self.profile.record("host.service", sim_ms=cost_ms)
        if self.trace is not None:
            self.trace.complete(
                "host.service", start_ms, cost_ms, track=f"host-{host_id}"
            )

    def on_link_transmit(
        self,
        src: ClientId,
        dst: ClientId,
        size_bytes: int,
        queue_delay_ms: TimeMs,
    ) -> None:
        """One message accepted by a link for transmission."""
        self.metrics.counter("net.messages").inc()
        self.metrics.counter("net.bytes").inc(size_bytes)
        self.metrics.histogram("net.queue_delay_ms").record(queue_delay_ms)
        self.metrics.histogram(
            "net.message_bytes", SIZE_BUCKETS_BYTES
        ).record(size_bytes)
        if self.profile is not None:
            self.profile.record("net.transmit")

    def on_arq_retransmit(
        self, src: ClientId, dst: ClientId, now_ms: TimeMs, seq: int
    ) -> None:
        """The ARQ transport retransmitted one data packet."""
        self.metrics.counter("net.arq.retransmits").inc()
        if self.profile is not None:
            self.profile.record("net.arq.retransmit")
        if self.trace is not None:
            self.trace.instant(
                "arq.retransmit",
                now_ms,
                track="net",
                args={"src": src, "dst": dst, "seq": seq},
            )

    def on_arq_abandoned(self, src: ClientId, dst: ClientId, now_ms: TimeMs) -> None:
        """The ARQ transport gave up on one data packet."""
        self.metrics.counter("net.arq.abandoned").inc()
        if self.trace is not None:
            self.trace.instant(
                "arq.abandoned", now_ms, track="net", args={"src": src, "dst": dst}
            )

    # ------------------------------------------------------------------
    # Server seams
    # ------------------------------------------------------------------
    def on_push_scan(self, now_ms: TimeMs, candidates: int) -> None:
        """One First Bound nomination pass completed; ``candidates`` is
        how many queue positions now wait on clients' pending lists."""
        self.metrics.counter("server.push.scans").inc()
        if self.profile is not None:
            self.profile.record("server.push.scan")
        if self.trace is not None:
            self.trace.instant(
                "push.scan", now_ms, track="server", args={"candidates": candidates}
            )

    def on_push_closure(self, sim_cost_ms: float) -> None:
        """One Algorithm 6 transitive closure computed."""
        self.metrics.counter("server.closures").inc()
        if self.profile is not None:
            self.profile.record("server.push.closure", sim_ms=sim_cost_ms)

    def on_push_build(
        self,
        now_ms: TimeMs,
        sim_cost_ms: float,
        batches: int,
        entries: int,
    ) -> None:
        """One push cycle finished building its batches."""
        self.metrics.counter("server.push_cycles").inc()
        self.metrics.counter("server.push.entries").inc(entries)
        if self.profile is not None:
            self.profile.record("server.push.build", sim_ms=sim_cost_ms)
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
        self.metrics.counter("server.validations").inc()
        if dropped:
            self.metrics.counter("server.actions_dropped").inc(dropped)
        if self.profile is not None:
            self.profile.record("server.validate", sim_ms=sim_cost_ms)
        if self.trace is not None:
            self.trace.complete(
                "validate",
                now_ms,
                sim_cost_ms,
                track="server",
                args={"entries": entries, "dropped": dropped},
            )

    def on_server_relay(self, now_ms: TimeMs, recipients: int) -> None:
        """A serializer/relay server routed one action (basic server or
        a baseline architecture's dispatch)."""
        self.metrics.counter("server.relays").inc()
        if self.profile is not None:
            self.profile.record("server.relay")

    def on_shard_forward(self, now_ms: TimeMs, owner: int, involved: int) -> None:
        """An owner shard forwarded a spanning action to the sequencer."""
        self.metrics.counter("server.shard.forwards").inc()
        if self.trace is not None:
            self.trace.instant(
                "shard.forward",
                now_ms,
                track=f"shard-{owner}",
                args={"involved": involved},
            )

    def on_shard_splice(
        self, now_ms: TimeMs, shard: int, gsn: int, pos: int
    ) -> None:
        """A shard spliced a sequenced spanning action into its stream."""
        self.metrics.counter("server.shard.splices").inc()
        if self.trace is not None:
            self.trace.instant(
                "shard.splice",
                now_ms,
                track=f"shard-{shard}",
                args={"gsn": gsn, "pos": pos},
            )

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
        self.metrics.counter(f"server.shard.handoff.{stage}").inc()
        if self.trace is not None:
            self.trace.instant(
                "shard.handoff",
                now_ms,
                track=f"shard-{src_shard}",
                args={"client": client_id, "to": dst_shard, "stage": stage},
            )

    def on_hybrid_bundle(
        self, now_ms: TimeMs, members: int, deduplicated: int
    ) -> None:
        """The hybrid relay server shipped one deduplicated bundle."""
        self.metrics.counter("server.hybrid.bundles").inc()
        self.metrics.counter("server.hybrid.deduplicated").inc(deduplicated)
        if self.trace is not None:
            self.trace.instant(
                "hybrid.bundle",
                now_ms,
                track="server",
                args={"members": members, "deduplicated": deduplicated},
            )

    # ------------------------------------------------------------------
    # Client seams
    # ------------------------------------------------------------------
    def on_client_apply(
        self, client_id: ClientId, now_ms: TimeMs, cost_ms: float
    ) -> None:
        """A client accepted one stream entry for evaluation."""
        self.metrics.counter("client.applies").inc()
        if self.profile is not None:
            self.profile.record("client.apply", sim_ms=cost_ms)

    def on_client_retry(
        self, client_id: ClientId, now_ms: TimeMs, attempt: int
    ) -> None:
        """A client resubmitted an unanswered action end-to-end."""
        self.metrics.counter("client.retries").inc()
        if self.profile is not None:
            self.profile.record("client.retry")
        if self.trace is not None:
            self.trace.instant(
                "client.retry",
                now_ms,
                track=f"host-{client_id}",
                args={"attempt": attempt},
            )

    # ------------------------------------------------------------------
    # End-of-run summary
    # ------------------------------------------------------------------
    def record_run_summary(
        self,
        *,
        meter=None,
        response_samples=None,
        virtual_ms: Optional[TimeMs] = None,
        events: Optional[int] = None,
    ) -> None:
        """Fold a finished run's headline measurements into the registry.

        ``meter`` is a :class:`~repro.net.stats.TrafficMeter` (exported
        via its ``export_metrics``); ``response_samples`` an iterable of
        stable response times (ms).
        """
        if meter is not None:
            meter.export_metrics(self.metrics)
        if response_samples is not None:
            self.metrics.histogram("response_ms").record_many(response_samples)
        if virtual_ms is not None:
            self.metrics.gauge("run.virtual_ms").set(virtual_ms)
        if events is not None:
            self.metrics.gauge("run.events").set(events)
