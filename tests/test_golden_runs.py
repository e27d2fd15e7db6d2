"""Golden fingerprints of seeded ``run_simulation`` calls: nine ``seve``
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

Re-dumped once when the ``--control-plane`` setting went and a run's
crash plan started deciding lease failover (a shard crash arms it):
``seve_k4_replicated`` is gone (its settings became ``seve_k4_single``'s);
``seve_k4_single_restart`` now fails over — term 1 to shard 1 at
2 002 ms instead of waiting out shard 0's restart — which moves its
events, clock, responses and bytes; ``seve_k4_w2_mixed_crashes`` and
``seve-naive_k4_w2_crashes`` gain the lease heartbeats (events
3 804 → 3 930 and 3 438 → 3 564, plus their total and server bytes)
with responses and shard stores unchanged.  No other value moved; the
``single`` / ``replicated`` in entry names record which setting they
were dumped under.

Re-dumped again when windows started ending where a shard can next
speak on the backbone (its send promise) instead of one backbone
latency past the next event: the two fault-free K = 4 entries,
``seve_k4_single`` and ``seve_k4_w2``, stop one window later — events
4 229 → 4 241, ``virtual_ms`` 10 570.24 → 10 644.24 (+74 ms, under
rtt/2 = 75 ms).  Every other value of every entry is unchanged: a run
with a fault plan or the elastic rebalancer keeps the old schedule.

Re-dumped when the baselines' fan-out was written once
(``BaselineEngine._fan_out``) and Zoned became Central on a zone grid:
exactly four entries moved.  ``zoned_clean`` / ``_lossy`` / ``_evict``
now count their zone servers' CPU, so ``measured.total_cpu_ms`` reads
1 838.48 / 1 837.88 / 1 817.40 ms (was 45.2 / 44.6 / 42.8), equal to
``central_*``'s.  ``locking_evict`` no longer sends effects to the
evicted client: ``events`` 11 381 → 11 377, ``total_bytes`` 336 224 →
335 904, ``measured.total_traffic_kb`` and ``server_traffic_kb``
328.34375 → 328.03125.  No other field of any entry moved.

Re-dumped when a span's owner-shard clients started getting its code
(only peer shards' clients get its value): exactly the nine K = 4
entries moved, every ``seve_k4_*`` and ``seve-naive_k4_w2_crashes``.
Each moved ``events``, ``virtual_ms``, ``responses``, ``client_bytes``
and ``total_bytes``; the four with a shard crash or the rebalancer
also moved ``shard_state_crc``.  The fault-free runs end sooner
(``virtual_ms`` 10 644.24 → 6 176.82) with the same 192 responses.
The crash runs confirm more moves: 125 → 137 (``replicated_crash``),
188 → 192 (the two sequencer-crash runs, which also end at 4 379.1 ms,
not 10 346.52) and 103 → 126 (``mixed_crashes``).
``seve-naive_k4_w2_crashes`` also moved ``measured``, ``replica_crc``
and ``consistency`` (13 / 12 / 1 / 0 → 19 / 13 / 6 / 0 objects /
exact / stale / violations): it still reports 0 violations.  Every
K = 1 and baseline entry is bit-equal.

Re-dumped when a peer shard's clients started getting a span's code
where the splice proves its inputs there equal to the owner's, and a
fault-tolerant commit that overtakes an originator's push started
confirming local entries too: exactly three entries moved.  The two
fault-free K = 4 runs, ``seve_k4_single`` (also the golden
``tests/test_gc_parking.py`` reads) and ``seve_k4_w2``, moved
``events`` 3 825 → 3 784, ``virtual_ms`` 6 176.82 → 4 276.0 (what the
same cluster takes at K = 1), ``responses`` (still 192), ``client_bytes``
and ``total_bytes`` 156 180 → 168 256 (+7.7 %: code is larger on the
wire than a value).  ``seve-hybrid_lossy`` confirms 187 moves, not
184 (client 7, which never crashes, now confirms all 12), and ends at
6 811.67 ms, not 6 252.54; its ``events``, bytes, ``shard_state_crc``,
``replica_crc``, ``measured`` and ``consistency`` (76 / 51 / 25 / 0 →
76 / 52 / 24 / 0 objects / exact / stale / violations) moved with it.
The other seven K = 4 entries speak at will (crash, failover, elastic,
client-crash plans), so none of their spans is code on a peer and they
are bit-equal, as is every other K = 1 and baseline entry.

Re-dumped when a late closure entry (one below the client's
high-water mark) started shipping as its committed value, or as code
when the client holds no newer write of its reads, instead of waiting
for the commit frontier: exactly four entries moved, every one with 0
violations.  ``seve_k1`` no longer waits seconds behind the frontier:
``virtual_ms`` 9 200.62 → 4 276.0 (what the K = 4 fault-free runs
take), mean response 2 408.6 → 395.6 ms, 383 responses, not 372, and
1 move dropped, not 12; ``events``, ``client_bytes`` and
``total_bytes`` (879 856 → 961 880: neighbours' moves now reach each
client) moved with it.  ``seve-hybrid_clean`` moved ``events``
2 446 → 2 459, bytes, ``measured`` traffic and closure CPU and
``replica_crc``, with the same 192 responses and clock.  The two lossy
runs deliver sooner into their crash windows and so retransmit more:
``seve-hybrid_lossy`` confirms 186 moves, not 187, and ends at
6 827.58 ms, not 6 811.67; ``seve-naive_lossy`` confirms 187, not 186
(the extra one 4.0 s after its submission), ends at 7 407.53 ms, not
6 227.83, and its ``consistency`` reads 78 / 55 / 23 / 0, not
76 / 53 / 23 / 0.  Every K = 4 entry and every baseline is bit-equal.

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
    "seve_k4_replicated_crash": _crashing("s2@1500:3500"),
    # The two runs in which the sequencer itself dies: for good, or to
    # come back 2 s later — the lease moves in both.
    "seve_k4_replicated_failover": _crashing("s0@1500"),
    "seve_k4_single_restart": _crashing("s0@1500:3500"),
    # The same drive split over two partitions.
    "seve_k4_w2": BASE.with_(shards=4, workers=2),
    "seve_k4_w2_replicated_crash": _crashing("s2@1500:3500", workers=2),
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

#: ``name -> (architecture, settings)`` for every architecture the nine
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
    ``backend.run_partitioned`` returned.  The merged view carries no
    store or replica (they stay in the partitions), so a sharded run's
    are read off the replicas ``backend._drive`` stepped, in partition
    order — every golden run is in-process.  ``seve`` runs must come
    out consistent; every other architecture has its verdict, its
    measured scalars and its surviving replicas recorded as well.
    """
    views, replicas = [], []

    def capturing(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            views.append(out[0] if isinstance(out, tuple) else out)
            return out

        return wrapper

    def driving(replicas_, *args, **kwargs):
        replicas.extend(replicas_)
        return drive(replicas_, *args, **kwargs)

    build_engine, run_partitioned = runner.build_engine, backend.run_partitioned
    drive = backend._drive
    runner.build_engine = capturing(build_engine)
    backend.run_partitioned = capturing(run_partitioned)
    backend._drive = driving
    try:
        result = runner.run_simulation(architecture, settings)
    finally:
        runner.build_engine = build_engine
        backend.run_partitioned = run_partitioned
        backend._drive = drive
    (view,) = views
    meter = view.meter
    if replicas:
        stores = [r.engine.shard_states[k] for r in replicas for k in r.owned_shards]
        stable = {c: r.engine.clients[c].stable for r in replicas for c in r.owned_clients}
    else:
        stores = [view.state]
        stable = {c: client.stable for c, client in view.clients.items()}
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
                stable[client_id].checksum() for client_id in view.live_client_ids()
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



@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 16: a submission in flight at a client crash is never resent",
)
def test_a_baseline_run_with_a_crash_window_quiesces_before_its_deadline():
    """The stall of ROADMAP item 16, on the ``central_evict`` golden's
    settings: client 3 submits ``a[3.4]`` 82 ms before its crash at
    1 500 ms, the one retry fires while it is down and
    ``ClientShell._retry_fire`` does not re-arm it, so the submission
    stays unanswered, ``BaselineEngine._quiescent`` never holds and the
    run idles past its drain deadline (125 000 ms virtual, 4 200 + 120 000
    ms allowed).  Fixing it is item 16's PR, which flips this test."""
    result = runner.run_simulation("central", BASE.with_(fault_plan=EVICTING))
    assert result.virtual_ms < BASE.submit_horizon_ms + BASE.drain_ms

if __name__ == "__main__":
    fingerprints = {name: fingerprint(settings) for name, settings in RUNS.items()}
    fingerprints.update(
        (name, fingerprint(settings, architecture))
        for name, (architecture, settings) in ARCHITECTURE_RUNS.items()
    )
    GOLDEN_PATH.write_text(json.dumps(fingerprints, indent=1) + "\n")
