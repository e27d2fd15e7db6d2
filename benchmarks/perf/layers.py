"""The traced run: install the probes, run once, name the numbers.

Each span name maps to one per-layer metric holding that layer's *self*
seconds, so the published self values plus ``trace.unattributed_pct``
add up to the traced wall time.  A few layers also publish an inclusive
``_s`` value (what removing the whole call could save at most); those
are listed in :data:`INCLUSIVE` and are not part of the sum.

Every time-valued metric is in calibrated seconds (see :mod:`calib`);
counts are exact and must repeat for the same seed.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import calib
import workloads
from probes import Probes
from spans import SpanRecorder

ROOT_SPAN = "harness.run_simulation"
#: The speedometer's ticks: recorded as spans so that their time is not
#: charged to the layer they interrupt, then left out of every sum.
PROBE_SPAN = "calib.probe"

#: span name -> metric that carries the span's self seconds.
SELF_METRIC = {
    "net.simulator": "net.simulator.self_s",
    "net.host": "net.host.self_s",
    "net.network.send": "net.network.send_self_s",
    "core.messages.wire_size": "core.messages.wire_size_s",
    "core.info_bound.validate": "core.info_bound.validate_s",
    "core.server.push_cycle": "core.server.push_cycle_self_s",
    "core.server.validation_tick": "core.server.validation_tick_self_s",
    "core.server.handler": "core.server.handler_self_s",
    "core.server.on_done": "core.server.on_done_self_s",
    "core.sharded.handler": "core.sharded.handler_self_s",
    "core.indexes.candidates": "core.indexes.candidates_self_s",
    "core.first_bound.affects": "core.first_bound.affects_s",
    "world.spatial.query": "world.spatial.query_self_s",
    "core.closure": "core.closure.s",
    "core.client.submit": "core.client.submit_self_s",
    "core.client.handler": "core.client.handler_self_s",
    "core.client.on_done": "core.client.on_done_self_s",
    "core.action.apply": "core.action.apply_self_s",
    "world.walls.first_obstruction": "world.walls.first_obstruction_self_s",
    "harness.workload.submit": "harness.workload.submit_self_s",
    "harness.build_world": "harness.build_world_s",
    "harness.build_engine": "harness.build_engine_s",
    "metrics.consistency.check": "metrics.consistency.check_s",
    "net.backend.coordinator": "net.backend.coordinator_self_s",
    "net.backend.replica_build": "net.backend.replica_self_s",
    "net.backend.replica_start": "net.backend.replica_self_s",
    "net.backend.replica_window": "net.backend.replica_self_s",
    "net.backend.replica_finish": "net.backend.replica_self_s",
    "core.messages.encode": "core.messages.encode_s",
    "core.messages.decode": "core.messages.decode_s",
}

#: metric -> span name whose *inclusive* seconds it carries.
INCLUSIVE = {
    "core.indexes.candidates_s": "core.indexes.candidates",
    "world.walls.first_obstruction_s": "world.walls.first_obstruction",
    "net.backend.replica_build_s": "net.backend.replica_build",
}

#: metric -> span name whose call count it carries.
CALLS = {
    "net.host.items": "net.host",
    "core.messages.wire_size_calls": "core.messages.wire_size",
    "core.server.push_cycles": "core.server.push_cycle",
    "core.indexes.candidates_calls": "core.indexes.candidates",
    "core.first_bound.affects_calls": "core.first_bound.affects",
    "world.spatial.queries": "world.spatial.query",
    "core.closure.calls": "core.closure",
    "core.action.applies": "core.action.apply",
    "world.walls.first_obstruction_calls": "world.walls.first_obstruction",
    "core.messages.frames": "core.messages.encode",
}

#: Counters the probes keep under the metric's own name.
COUNTERS = (
    "net.network.messages",
    "net.network.bytes",
    "core.info_bound.validated",
    "core.info_bound.dropped",
    "core.indexes.candidates_returned",
    "core.first_bound.affects_hits",
    "core.closure.entries_returned",
)

#: Frames replayed through the codec, and how often, for the
#: per-message encode/decode cost.
REPLAY_FRAMES = 1000
REPLAY_ROUNDS = 20


def traced_call(settings, trace_out: Optional[str] = None) -> dict:
    """Run ``settings`` once under the probes; returns the timed-run
    record plus ``per_layer`` (metric -> value) and ``layers`` (the raw
    per-span table in uncalibrated seconds)."""
    from repro.harness.runner import run_simulation

    rec = SpanRecorder()
    probes = Probes(rec).install()
    root = rec.name_id(ROOT_SPAN)
    try:
        # The root span encloses the speedometer, so every probe tick is
        # a span inside it and can be taken out of the wall time exactly.
        start = rec.begin(root)
        try:
            with calib.Speedometer(lambda tick: rec.wrap(PROBE_SPAN, tick)) as speedometer:
                result = run_simulation(workloads.ARCHITECTURE, settings)
        finally:
            rec.end(root, start)
    finally:
        probes.uninstall()
    if rec.open_spans:
        raise RuntimeError(f"{rec.open_spans} spans left open after the run")
    sim = workloads.sim_record(result)
    scale = speedometer.speed
    per_layer = layer_metrics(rec, probes, sim, scale)
    per_layer.update(codec_replay(probes, scale))
    if trace_out:
        rec.write_chrome(trace_out)
    raw = rec.total_s[root]
    return {
        "raw_wall_s": raw,
        "wall_s": (raw - rec.total_s[rec.name_id(PROBE_SPAN)]) * scale,
        "speed": scale,
        "sim": sim,
        "per_layer": per_layer,
        "layers": rec.table(),
    }


def layer_metrics(rec: SpanRecorder, probes: Probes, sim: dict, scale: float) -> Dict[str, float]:
    """Name the recorder's and the probes' numbers (see module doc);
    ``scale`` turns raw seconds into calibrated ones."""
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    table = {
        span: {key: value * scale if key != "calls" else value for key, value in row.items()}
        for span, row in rec.table().items()
    }
    probe_s = table.pop(PROBE_SPAN, zero)["total_s"]
    unknown = set(table) - set(SELF_METRIC) - {ROOT_SPAN}
    if unknown:
        raise RuntimeError(f"spans without a per-layer metric: {sorted(unknown)}")

    metrics: Dict[str, float] = {name: 0.0 for name in SELF_METRIC.values()}
    for span, name in SELF_METRIC.items():
        metrics[name] += table.get(span, zero)["self_s"]
    root = table[ROOT_SPAN]
    traced_wall = root["total_s"] - probe_s
    unattributed = root["self_s"]
    attributed = sum(metrics.values())
    metrics["trace.unattributed_pct"] = 100.0 * unattributed / traced_wall
    metrics["trace.sum_error_pct"] = (
        100.0 * abs(attributed + unattributed - traced_wall) / traced_wall
    )
    for name, span in INCLUSIVE.items():
        metrics[name] = table.get(span, zero)["total_s"]
    for name, span in CALLS.items():
        metrics[name] = table.get(span, zero)["calls"]
    for name in COUNTERS:
        metrics[name] = probes.counts[name]

    returned = probes.counts["core.indexes.candidates_returned"]
    metrics["core.indexes.candidate_precision"] = (
        probes.counts["core.first_bound.affects_hits"] / returned if returned else 0.0
    )
    metrics["net.simulator.events"] = sim["events"]
    metrics["core.sharded.spans_forwarded"] = sim["spans_forwarded"]
    metrics["core.sharded.spans_spliced"] = sim["spans_spliced"]
    metrics["core.sharded.handoffs"] = sim["handoffs"]

    cpu_ms: Dict[int, float] = {}
    for host in sorted(probes.hosts, key=lambda host: host.host_id):  # fixed summing order
        cpu_ms[host.host_id] = cpu_ms.get(host.host_id, 0.0) + host.cpu_time_used
    servers = [ms for host_id, ms in cpu_ms.items() if host_id < 0]
    clients = [ms for host_id, ms in cpu_ms.items() if host_id >= 0]
    metrics["net.host.server_cpu_sim_ms_max"] = max(servers, default=0.0)
    metrics["net.host.client_cpu_sim_ms_mean"] = (
        sum(clients) / len(clients) if clients else 0.0
    )

    busy = [seconds * scale for seconds in probes.replica_busy_s.values()]
    metrics["net.backend.windows"] = (
        probes.counts["net.backend.run_window"] // len(busy) if busy else 0
    )
    metrics["net.backend.replica_busy_s_max"] = max(busy, default=0.0)
    metrics["net.backend.replica_busy_s_sum"] = sum(busy)
    metrics["core.messages.frame_bytes"] = sum(len(frame) for frame in probes.frames)
    metrics["core.messages.pickle_fallbacks"] = sum(
        sum(codec.pickle_fallbacks.values()) for codec in probes.codecs
    )
    metrics["harness.wall_s_per_sim_s"] = (
        traced_wall / (sim["virtual_ms"] / 1000.0) if sim["virtual_ms"] else 0.0
    )
    return metrics


def codec_replay(probes: Probes, scale: float) -> Dict[str, float]:
    """Per-message codec cost: decode and re-encode an evenly spaced
    sample of the frames the run produced, with the probes removed."""
    costs = {"core.messages.encode_us_per_msg": 0.0, "core.messages.decode_us_per_msg": 0.0}
    if not probes.frames:
        return costs
    codec = next(iter(probes.codecs))
    stride = max(1, len(probes.frames) // REPLAY_FRAMES)
    frames = probes.frames[::stride]
    started = time.perf_counter()
    for _ in range(REPLAY_ROUNDS):
        messages = [codec.decode(frame) for frame in frames]
    decoded = time.perf_counter()
    for _ in range(REPLAY_ROUNDS):
        for message in messages:
            codec.encode(message)
    encoded = time.perf_counter()
    per_message = 1e6 * scale / (REPLAY_ROUNDS * len(frames))
    costs["core.messages.decode_us_per_msg"] = (decoded - started) * per_message
    costs["core.messages.encode_us_per_msg"] = (encoded - decoded) * per_message
    return costs
