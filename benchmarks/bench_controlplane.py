"""Benchmark of gsn-lease failover (docs/control_plane.md).

Emits ``BENCH_controlplane.json`` (repo root) recording the outage a
permanent mid-run kill of the sequencer shard costs on a span-heavy
K=4 workload: virtual time from the crash to the replacement's
``LeaseGrant`` (detection + campaign), plus the campaign-only latency
the grant records, with the honest-survivor audits asserted green on
the completed run.  The plan's shard crash is what arms the lease; a
run without one keeps the lease pinned to shard 0 and sends no lease
message, so there is no fault-free arm to compare.

The acceptance gate: the permanent sequencer kill must complete the run
with a failover, audits green, and an outage bounded by twice the lease
timeout — the worst case when a death goes unannounced and survivors
must time the holder out; the simulator's crash oracle is a perfect
failure detector, so the measured outage is typically just the
campaign round trips.

Run:  PYTHONPATH=src python benchmarks/bench_controlplane.py [--quick]
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SHARDS = 4
CRASH_AT_MS = 2_000.0


def _settings(quick: bool):
    from repro.harness.config import SimulationSettings
    from repro.net.faults import CrashWindow, FaultPlan

    return SimulationSettings(
        num_clients=12 if quick else 24,
        num_walls=60,
        moves_per_client=10 if quick else 20,
        world_width=400.0,
        world_height=300.0,
        spawn="cluster",
        spawn_extent=90.0,
        move_interval_ms=200.0,
        cost_model="fixed",
        move_cost_ms=1.0,
        eval_overhead_ms=0.1,
        rtt_ms=150.0,
        bandwidth_bps=None,
        seed=13,
        shards=SHARDS,
        fault_plan=FaultPlan(
            crashes=(CrashWindow(-1, CRASH_AT_MS, None, shard_index=0),)
        ),
    )


def _audit_or_die(result) -> None:
    audit = result.shard_audit
    if audit is None or not audit.consistent:
        raise AssertionError(
            f"cross-shard audit failed: {audit.summary() if audit else 'missing'}"
        )
    if audit.order_violations:
        raise AssertionError(f"span-order violations: {audit.order_violations}")
    if result.consistency is not None and not result.consistency.consistent:
        raise AssertionError("replica consistency audit failed")


def bench_failover(quick: bool) -> dict:
    from repro.core.control_plane import LEASE_TIMEOUT_MS
    from repro.harness.runner import run_simulation

    result = run_simulation("seve", _settings(quick))
    _audit_or_die(result)
    if result.failovers < 1:
        raise AssertionError("permanent sequencer kill produced no failover event")
    grant = result.failover_events[0]
    return {
        "crash_at_ms": CRASH_AT_MS,
        "lease_timeout_ms": LEASE_TIMEOUT_MS,
        "new_holder": grant["holder"],
        "term": grant["term"],
        "grant_at_ms": grant["at_ms"],
        "outage_ms": round(grant["at_ms"] - CRASH_AT_MS, 3),
        "campaign_ms": grant["latency_ms"],
        "failovers": result.failovers,
        "spans_spliced": sum(row["spans_spliced"] for row in result.shard_rows),
        "responses": result.responses_observed,
        "response_mean_ms": result.response.mean,
        "virtual_ms": result.virtual_ms,
        "wall_s": result.wall_seconds,
    }


def main(argv: list[str]) -> int:
    failover = bench_failover("--quick" in argv)
    threshold_ms = 2 * failover["lease_timeout_ms"]
    passed = failover["outage_ms"] <= threshold_ms
    report = {
        "benchmark": "controlplane",
        "description": (
            "Outage after a permanent mid-run kill of the sequencer shard "
            "on a span-heavy K=4 workload (the plan's shard crash arms "
            "the gsn lease), audits asserted green inline."
        ),
        "unit": "outage in virtual ms",
        "shards": SHARDS,
        "failover": failover,
        "acceptance": {
            "metric": "failover outage_ms vs 2x lease timeout",
            "outage_ms": failover["outage_ms"],
            "threshold_ms": threshold_ms,
            "passed": passed,
        },
    }
    text = json.dumps(report, indent=2)
    (REPO_ROOT / "BENCH_controlplane.json").write_text(text + "\n")
    print(text)
    print(
        f"failover: shard {failover['new_holder']} took term "
        f"{failover['term']} {failover['outage_ms']}ms after the crash "
        f"(campaign {failover['campaign_ms']}ms)"
    )
    print(
        f"controlplane acceptance: outage {failover['outage_ms']}ms vs "
        f"{threshold_ms}ms: {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
