"""Benchmark of the replicated control plane (docs/control_plane.md).

Emits ``BENCH_controlplane.json`` (repo root)
recording the replicated gsn-lease sequencer's two costs against the
classic shard-0 singleton on a span-heavy K=4 workload:

* **Sequencing throughput** — spans spliced per simulated second,
  ``--control-plane single`` vs ``replicated``, fault-free.  The
  replicated plane must match the singleton span-for-span (it is
  protocol-transparent when nothing crashes); the delta it *is*
  allowed is heartbeat traffic, reported as a wire-KB tax.
* **Failover outage** — a permanent kill of the sequencer shard
  mid-run: virtual time from the crash to the replacement's
  ``LeaseGrant`` (detection + campaign), plus the campaign-only
  latency the grant records, with the honest-survivor audits asserted
  green on the completed run.

The acceptance gate is the tentpole claim: the permanent sequencer
kill must complete the run with exactly the expected failover, audits
green, and an outage bounded by twice the lease timeout — the worst
case when a death goes unannounced and survivors must time the holder
out; the simulator's crash oracle is a perfect failure detector, so
the measured outage is typically just the campaign round trips.

Run:  PYTHONPATH=src python benchmarks/bench_controlplane.py [--quick]
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SHARDS = 4
CRASH_AT_MS = 2_000.0


def _settings(control_plane: str, kill_sequencer: bool, quick: bool):
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
        control_plane=control_plane,
        fault_plan=(
            FaultPlan(
                crashes=(
                    CrashWindow(-1, CRASH_AT_MS, None, shard_index=0),
                )
            )
            if kill_sequencer
            else None
        ),
    )


def _audit_or_die(result, label: str) -> None:
    audit = result.shard_audit
    if audit is None or not audit.consistent:
        raise AssertionError(
            f"{label}: cross-shard audit failed: "
            f"{audit.summary() if audit else 'missing'}"
        )
    if audit.order_violations:
        raise AssertionError(
            f"{label}: span-order violations: {audit.order_violations}"
        )
    if result.consistency is not None and not result.consistency.consistent:
        raise AssertionError(f"{label}: replica consistency audit failed")


def bench_throughput(control_plane: str, quick: bool) -> dict:
    from repro.harness.runner import run_simulation

    result = run_simulation(
        "seve", _settings(control_plane, kill_sequencer=False, quick=quick)
    )
    _audit_or_die(result, f"throughput/{control_plane}")
    spans = sum(row["spans_spliced"] for row in result.shard_rows)
    virtual_s = result.virtual_ms / 1000.0
    return {
        "spans_spliced": spans,
        "spans_per_virtual_s": round(spans / virtual_s, 2) if virtual_s else 0.0,
        "responses": result.responses_observed,
        "response_mean_ms": result.response.mean,
        "traffic_kb": round(result.total_traffic_kb, 2),
        "failovers": result.failovers,
        "virtual_ms": result.virtual_ms,
        "wall_s": result.wall_seconds,
    }


def bench_failover(quick: bool) -> dict:
    from repro.core.control_plane import ControlPlaneConfig
    from repro.harness.runner import run_simulation

    result = run_simulation(
        "seve", _settings("replicated", kill_sequencer=True, quick=quick)
    )
    _audit_or_die(result, "failover")
    if result.failovers < 1:
        raise AssertionError(
            "permanent sequencer kill produced no failover event"
        )
    grant = result.failover_events[0]
    timeout_ms = ControlPlaneConfig().lease_timeout_ms
    return {
        "crash_at_ms": CRASH_AT_MS,
        "lease_timeout_ms": timeout_ms,
        "new_holder": grant["holder"],
        "term": grant["term"],
        "grant_at_ms": grant["at_ms"],
        "outage_ms": round(grant["at_ms"] - CRASH_AT_MS, 3),
        "campaign_ms": grant["latency_ms"],
        "failovers": result.failovers,
        "responses": result.responses_observed,
        "virtual_ms": result.virtual_ms,
        "wall_s": result.wall_seconds,
    }


def main(argv: list[str]) -> int:
    from repro.core.control_plane import ControlPlaneConfig

    quick = "--quick" in argv
    single = bench_throughput("single", quick)
    replicated = bench_throughput("replicated", quick)
    failover = bench_failover(quick)

    timeout_ms = ControlPlaneConfig().lease_timeout_ms
    outage_ok = failover["outage_ms"] <= 2 * timeout_ms
    transparent = (
        replicated["spans_spliced"] == single["spans_spliced"]
        and replicated["failovers"] == 0
    )
    passed = outage_ok and transparent
    report = {
        "benchmark": "controlplane",
        "description": (
            "Replicated gsn-lease sequencer vs the classic shard-0 "
            "singleton on a span-heavy K=4 workload: fault-free "
            "sequencing throughput (must match span-for-span; the "
            "heartbeat tax shows up as wire KB), and the outage after "
            "a permanent mid-run kill of the sequencer shard, audits "
            "asserted green inline."
        ),
        "unit": "spans spliced per simulated second; outage in virtual ms",
        "shards": SHARDS,
        "throughput": {"single": single, "replicated": replicated},
        "heartbeat_tax_kb": round(
            replicated["traffic_kb"] - single["traffic_kb"], 2
        ),
        "failover": failover,
        "acceptance": {
            "metric": "failover outage_ms vs 2x lease timeout, "
            "fault-free transparency span-for-span",
            "outage_ms": failover["outage_ms"],
            "threshold_ms": 2 * timeout_ms,
            "transparent": transparent,
            "passed": passed,
        },
    }
    text = json.dumps(report, indent=2)
    (REPO_ROOT / "BENCH_controlplane.json").write_text(text + "\n")
    print(text)
    print(
        f"throughput: {single['spans_per_virtual_s']} spans/s single vs "
        f"{replicated['spans_per_virtual_s']} replicated "
        f"(heartbeat tax {report['heartbeat_tax_kb']} KB)"
    )
    print(
        f"failover: shard {failover['new_holder']} took term "
        f"{failover['term']} {failover['outage_ms']}ms after the crash "
        f"(campaign {failover['campaign_ms']}ms)"
    )
    gate = report["acceptance"]
    print(
        f"controlplane acceptance: outage {gate['outage_ms']}ms vs "
        f"{gate['threshold_ms']}ms, transparent={gate['transparent']}: "
        f"{'PASS' if gate['passed'] else 'FAIL'}"
    )
    return 0 if gate["passed"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
