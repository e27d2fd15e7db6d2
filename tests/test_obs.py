"""Unit tests for the ``repro.obs`` observability layer.

Covers the metrics registry (fixed-bucket histogram semantics, type and
boundary errors), the trace recorder (span nesting, Chrome
``trace_event`` export round-trip, JSONL), and the :class:`Observer`
facade's seam hooks (docs/observability.md).
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    LATENCY_BUCKETS_MS,
    PHASES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Observer,
    PhaseProfile,
    TraceRecorder,
    load_chrome,
)

# ----------------------------------------------------------------------
# Histogram bucketing
# ----------------------------------------------------------------------


class TestHistogram:
    def test_boundary_samples_fall_in_their_bucket(self):
        # Bucket i holds bounds[i-1] < x <= bounds[i]: a sample exactly
        # on a boundary belongs to that boundary's bucket.
        h = Histogram("x", (10.0, 100.0))
        h.record(10.0)
        h.record(100.0)
        assert h.counts == [1, 1, 0]

    def test_overflow_bucket_catches_samples_past_last_bound(self):
        h = Histogram("x", (1.0,))
        h.record_many([0.5, 1.0, 1.0001, 1e9])
        assert h.counts == [2, 2]
        assert h.count == 4

    def test_min_max_mean_tracking(self):
        h = Histogram("x", (10.0,))
        h.record_many([2.0, 4.0, 6.0])
        assert (h._min, h._max) == (2.0, 6.0)
        assert h.mean == 4.0
        d = h.to_dict()
        assert (d["min"], d["max"], d["sum"]) == (2.0, 6.0, 12.0)

    def test_empty_histogram_exports_none_min_max_and_nan_stats(self):
        h = Histogram("x", (1.0,))
        d = h.to_dict()
        assert d["min"] is None and d["max"] is None
        assert math.isnan(h.mean)
        assert math.isnan(h.quantile(0.5))

    def test_quantile_returns_bucket_upper_bound(self):
        h = Histogram("x", (10.0, 100.0))
        h.record_many([1.0] * 9 + [50.0])
        assert h.quantile(0.5) == 10.0
        assert h.quantile(0.95) == 100.0

    def test_quantile_overflow_bucket_reports_observed_max(self):
        h = Histogram("x", (10.0,))
        h.record_many([5.0, 123.0, 456.0])
        assert h.quantile(1.0) == 456.0

    def test_quantile_out_of_range_raises(self):
        h = Histogram("x", (1.0,))
        with pytest.raises(ObservabilityError):
            h.quantile(1.5)

    def test_empty_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("x", ())

    @pytest.mark.parametrize("bounds", [(2.0, 1.0), (1.0, 1.0)])
    def test_unsorted_or_duplicate_bounds_rejected(self, bounds):
        with pytest.raises(ObservabilityError):
            Histogram("x", bounds)

    def test_default_latency_buckets_are_strictly_ascending(self):
        assert list(LATENCY_BUCKETS_MS) == sorted(set(LATENCY_BUCKETS_MS))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_rejects_negative_increment(self):
        with pytest.raises(ObservabilityError):
            Counter("x").inc(-1)

    def test_gauge_is_last_write_wins(self):
        g = Gauge("x")
        g.set(1.0)
        g.set(7)
        assert g.value == 7.0

    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc()
        assert registry.counter("a").value == 2

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ObservabilityError):
            registry.gauge("a")
        with pytest.raises(ObservabilityError):
            registry.histogram("a")

    def test_histogram_bounds_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ObservabilityError):
            registry.histogram("h", bounds=(1.0, 3.0))
        # Identical bounds re-register fine.
        assert registry.histogram("h", bounds=(1.0, 2.0)).bounds == (1.0, 2.0)

    def test_write_json_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h", bounds=(10.0,)).record(4.0)
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        assert json.loads(path.read_text()) == registry.to_dict()

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a")
        assert registry.names() == ["a", "b"]
        assert registry.get("missing") is None


# ----------------------------------------------------------------------
# Trace recorder
# ----------------------------------------------------------------------


class TestTraceRecorder:
    def test_spans_nest_per_track(self):
        trace = TraceRecorder()
        trace.begin("outer", 0.0, track="server")
        trace.begin("unrelated", 0.0, track="host-1")
        trace.begin("inner", 1.0, track="server")
        trace.end(2.0, track="server")   # closes inner
        trace.end(3.0, track="server")   # closes outer
        trace.end(4.0, track="host-1")
        names = [e["name"] for e in trace.events if e["ph"] == "E"]
        assert names == ["inner", "outer", "unrelated"]
        assert trace.open_spans() == 0

    def test_end_without_open_span_raises(self):
        trace = TraceRecorder()
        with pytest.raises(ObservabilityError):
            trace.end(1.0, track="server")

    def test_negative_duration_raises(self):
        with pytest.raises(ObservabilityError):
            TraceRecorder().complete("x", 10.0, -1.0)

    def test_chrome_export_round_trip(self, tmp_path):
        trace = TraceRecorder()
        trace.begin("cycle", 100.0, track="server", args={"batches": 2})
        trace.end(105.5, track="server")
        trace.complete("host.service", 200.25, 7.5, track="host-3")
        trace.instant("retry", 250.0, track="host-3", args={"attempt": 1})
        path = tmp_path / "run.trace.json"
        trace.write_chrome(path)
        assert load_chrome(path) == trace.events

    def test_chrome_export_units_and_metadata(self, tmp_path):
        trace = TraceRecorder()
        trace.complete("work", 3.0, 1.5, track="server")
        payload = trace.to_chrome()
        meta, span = payload["traceEvents"]
        assert meta["ph"] == "M" and meta["args"] == {"name": "server"}
        assert span["ts"] == 3_000.0 and span["dur"] == 1_500.0  # ms -> µs
        assert payload["displayTimeUnit"] == "ms"

    def test_jsonl_export_one_event_per_line(self, tmp_path):
        trace = TraceRecorder()
        trace.instant("a", 1.0)
        trace.instant("b", 2.0)
        path = tmp_path / "run.trace.jsonl"
        trace.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["a", "b"]


# ----------------------------------------------------------------------
# Observer facade
# ----------------------------------------------------------------------


class TestObserver:
    def test_trace_and_profile_optional(self):
        bare = Observer()
        assert bare.trace is None and bare.profile is None
        full = Observer(trace=True, profile=True)
        assert full.trace is not None and full.profile is not None

    def test_seam_hooks_update_metrics_profile_and_trace(self):
        obs = Observer(trace=True, profile=True)
        obs.on_dispatch()
        obs.on_host_service(3, start_ms=10.0, cost_ms=7.44, queue_delay_ms=2.0)
        obs.on_link_transmit(0, -1, size_bytes=120, queue_delay_ms=0.0)
        obs.on_arq_retransmit(0, -1, now_ms=50.0, seq=4)
        obs.on_arq_abandoned(0, -1, now_ms=60.0)
        obs.on_push_scan(100.0, candidates=5)
        obs.on_push_closure(sim_cost_ms=0.04)
        obs.on_push_build(100.0, sim_cost_ms=0.2, batches=2, entries=6)
        obs.on_validate(110.0, sim_cost_ms=0.1, entries=3, dropped=1)
        obs.on_server_relay(120.0, recipients=8)
        obs.on_hybrid_bundle(130.0, members=3, deduplicated=2)
        obs.on_client_apply(2, now_ms=140.0, cost_ms=7.44)
        obs.on_client_retry(2, now_ms=150.0, attempt=1)

        counters = {
            name
            for name in obs.metrics.names()
            if obs.metrics.get(name).to_dict()["type"] == "counter"
        }
        assert {
            "sim.dispatched", "host.items", "net.messages", "net.bytes",
            "net.arq.retransmits", "net.arq.abandoned", "server.push.scans",
            "server.closures", "server.push_cycles", "server.push.entries",
            "server.validations", "server.actions_dropped", "server.relays",
            "server.hybrid.bundles", "server.hybrid.deduplicated",
            "client.applies", "client.retries",
        } <= counters
        # Every phase the hooks recorded is a canonical PHASES name.
        assert set(obs.profile.phases) <= set(PHASES)
        assert obs.profile.as_dict()["host.service"]["sim_ms"] == 7.44
        assert len(obs.trace) > 0 and obs.trace.open_spans() == 0

    def test_record_run_summary_folds_in_headline_metrics(self):
        obs = Observer()
        obs.record_run_summary(
            response_samples=[238.0, 250.0], virtual_ms=5_000.0, events=42
        )
        assert obs.metrics.histogram("response_ms").count == 2
        assert obs.metrics.gauge("run.virtual_ms").value == 5_000.0
        assert obs.metrics.gauge("run.events").value == 42.0


class TestPhaseProfile:
    def test_record_aggregates_per_phase(self):
        profile = PhaseProfile()
        profile.record("server.validate", sim_ms=1.0)
        profile.record("server.validate", sim_ms=2.0, n=3)
        assert profile.as_dict() == {
            "server.validate": {"count": 4, "sim_ms": 3.0}
        }

    def test_as_dict_is_phase_sorted(self):
        profile = PhaseProfile()
        profile.record("z")
        profile.record("a")
        assert list(profile.as_dict()) == ["a", "z"]
