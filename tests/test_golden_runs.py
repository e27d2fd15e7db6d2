"""Golden fingerprints of seeded ``run_simulation`` calls: ten ``seve``
runs, and a clean, a lossy and an evicting run of every other
architecture.

A fingerprint is everything the run decides in virtual time: dispatched
events, the final clock, every response sample, per-client and total
traffic bytes, each shard's committed store, the drop count and the
failover log.  The runs below must keep reproducing
``tests/data/golden_runs.json`` bit for bit.

Where the file comes from: the first six entries were dumped at the
last commit that still had the brute-force distribution fork, the
lease-less ``single`` sequencer and the run-in-a-subprocess fork; the
four ``workers=2`` entries at the last commit that still drove a plain
``--shards K`` run on the per-event loop (722b9d3).  Routing those runs
through the window coordinator moved the ``virtual_ms`` of the five
K = 4 one-partition entries by +1.00/+1.00/+0.64/+1.00/+1.00 ms (the
run now ends at a barrier, at most one lookahead late) and no other
field of any entry.

The per-architecture entries (``<architecture>_clean`` / ``_lossy`` /
``_evict`` and ``seve-naive_k4_w2_crashes``) were dumped at edf609e, the last commit
that assembled the SEVE engines and the baselines separately and
measured them through two branches of ``run_simulation``; they pin
everything the runner reads from a finished run (``measured``), each
surviving client's stable replica, and the consistency verdict — which
is recorded, not asserted: ``ring`` is inconsistent by design, and a
client that sat out a crash window is stale in every architecture that
has no catch-up path.

Regenerate (only when virtual-time behaviour is *meant* to change) with
``PYTHONPATH=src python tests/test_golden_runs.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness import runner
from repro.harness.config import SimulationSettings
from repro.net import backend
from repro.net.faults import FaultPlan, parse_crash_plan

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_runs.json"

# The cluster spawn straddles the x = 500 stripe border at K = 4, so a
# good share of the moves are spanning actions.
BASE = SimulationSettings(
    num_clients=16,
    num_walls=200,
    moves_per_client=12,
    rtt_ms=150.0,
    seed=13,
)


def _crashing(plan: str, **changes) -> SimulationSettings:
    return BASE.with_(
        shards=4, fault_plan=FaultPlan(crashes=parse_crash_plan(plan)), **changes
    )


RUNS = {
    # Dense enough that the Information Bound drops a dozen moves.
    "seve_k1": BASE.with_(num_clients=32, spawn_extent=80.0),
    "seve_k4_single": BASE.with_(shards=4),
    "seve_k4_replicated": BASE.with_(shards=4, control_plane="replicated"),
    "seve_k4_replicated_crash": _crashing(
        "s2@1500:3500", control_plane="replicated"
    ),
    # The two runs in which the sequencer itself dies: the lease moves
    # (replicated), or shard 0 comes back and is re-forwarded to (single).
    "seve_k4_replicated_failover": _crashing("s0@1500", control_plane="replicated"),
    "seve_k4_single_restart": _crashing("s0@1500:3500"),
    # The same drive split over two partitions.
    "seve_k4_w2": BASE.with_(shards=4, workers=2),
    "seve_k4_w2_replicated_crash": _crashing(
        "s2@1500:3500", control_plane="replicated", workers=2
    ),
    "seve_k4_w2_mixed_crashes": _crashing(
        "3@1500,9@1800:4000,s1@2000:3000", workers=2
    ),
    "seve_k4_w2_elastic": BASE.with_(
        shards=4,
        workers=2,
        elastic=True,
        elastic_interval_ms=500,
        elastic_threshold=1.05,
        elastic_hysteresis=1,
    ),
}

#: Loss, jitter, duplication and one client crash/reconnect window.
LOSSY = FaultPlan(
    loss_rate=0.05,
    jitter_ms=40,
    duplicate_rate=0.02,
    seed=7,
    crashes=parse_crash_plan("3@1500:4000"),
)

#: A client that returns after the liveness sweep (5 s timeout) evicted
#: it and one that never comes back, on a loss-free network.
EVICTING = FaultPlan(crashes=parse_crash_plan("3@1500:9000,5@3000"))

#: ``name -> (architecture, settings)`` for every architecture the ten
#: ``seve`` runs above do not cover.
ARCHITECTURE_RUNS = {
    f"{architecture}_{kind}": (architecture, settings)
    for architecture in (
        "central",
        "broadcast",
        "ring",
        "locking",
        "timestamp",
        "zoned",
        "seve-basic",
        "incomplete",
        "seve-naive",
        "seve-hybrid",
    )
    for kind, settings in (
        ("clean", BASE),
        ("lossy", BASE.with_(fault_plan=LOSSY)),
        ("evict", BASE.with_(fault_plan=EVICTING)),
    )
}
# The sharded measurement path (merged partition snapshots) under
# client and shard crashes.
ARCHITECTURE_RUNS["seve-naive_k4_w2_crashes"] = (
    "seve-naive",
    _crashing("3@1500,9@1800:4000,s1@2000:3000", workers=2),
)

#: The ``RunResult`` scalars the runner measures from a finished run.
MEASURED = (
    "total_traffic_kb",
    "client_traffic_kb",
    "server_traffic_kb",
    "drop_percent",
    "avg_visible",
    "avg_move_cost_ms",
    "moves_submitted",
    "responses_observed",
    "total_cpu_ms",
    "closure_cpu_ms",
    "messages_dropped",
    "messages_duplicated",
    "retransmissions",
    "clients_evicted",
    "shard_rows",
)


def fingerprint(settings: SimulationSettings, architecture: str = "seve") -> dict:
    """Run ``architecture`` under ``settings`` and reduce it to JSON
    scalars.

    The inputs come from whatever the run measured: the engine
    ``runner.build_engine`` built, or the merged view
    ``backend.run_partitioned`` returned.  ``seve`` runs must come out
    consistent; every other architecture has its verdict, its measured
    scalars and its surviving replicas recorded as well.
    """
    views = []

    def capturing(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            views.append(out[0] if isinstance(out, tuple) else out)
            return out

        return wrapper

    build_engine, run_partitioned = runner.build_engine, backend.run_partitioned
    runner.build_engine = capturing(build_engine)
    backend.run_partitioned = capturing(run_partitioned)
    try:
        result = runner.run_simulation(architecture, settings)
    finally:
        runner.build_engine = build_engine
        backend.run_partitioned = run_partitioned
    (view,) = views
    meter = view.meter
    stores = getattr(view, "shard_states", None) or [view.state]
    assert result.consistency is not None
    if architecture == "seve":
        assert result.consistency.consistent
        extra = {}
    else:
        report = result.consistency
        extra = {
            "consistency": [
                report.objects_checked,
                report.exact_matches,
                report.stale_but_consistent,
                report.violation_count,
            ],
            "measured": {
                name: _jsonable(getattr(result, name)) for name in MEASURED
            },
            "replica_crc": [
                view.clients[client_id].stable.checksum()
                for client_id in view.live_client_ids()
            ],
        }
    return {
        "events": result.events,
        "virtual_ms": result.virtual_ms,
        "responses": sorted(view.response_times.samples),
        "client_bytes": [
            meter.host_bytes(client_id) for client_id in sorted(view.clients)
        ],
        "total_bytes": meter.total_bytes,
        "shard_state_crc": [store.checksum() for store in stores],
        "dropped": sum(len(ids) for ids in getattr(view, "dropped", {}).values()),
        "failovers": [dict(event) for event in result.failover_events],
        **extra,
    }


def _jsonable(value):
    """``value`` as JSON loads it back (tuples inside shard rows)."""
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_its_golden_fingerprint(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    assert fingerprint(RUNS[name]) == golden


@pytest.mark.parametrize("name", sorted(ARCHITECTURE_RUNS))
def test_architecture_run_matches_its_golden_fingerprint(name):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    architecture, settings = ARCHITECTURE_RUNS[name]
    assert fingerprint(settings, architecture) == golden


if __name__ == "__main__":
    fingerprints = {name: fingerprint(settings) for name, settings in RUNS.items()}
    fingerprints.update(
        (name, fingerprint(settings, architecture))
        for name, (architecture, settings) in ARCHITECTURE_RUNS.items()
    )
    GOLDEN_PATH.write_text(json.dumps(fingerprints, indent=1) + "\n")
