"""Flash-crowd benchmark of the elastic rebalancer (docs/elasticity.md).

Emits ``BENCH_elastic.json`` (repo root)
recording, for a tight crowd straddling the centre cut of a wide
K=4 world — the workload that leaves two static stripes idle — with
elasticity off vs on, clean and lossy:

* ``bottleneck_serialized`` — actions serialized by the hottest shard
  (the K-independent cost the static stripes cannot shed);
* ``bottleneck_cpu_ms`` — the hottest shard host's simulated CPU time;
* ``rebalances`` and the committed boundary history;
* the final stripe intervals, showing where the cuts converged.

Inline assertions keep the numbers honest: every elastic cell must
rebalance at least once, pass the cross-shard span-order/replica
audits, and leave no epoch or control message undrained.

The acceptance gate is the tentpole claim: under the flash crowd the
elastic run's bottleneck-shard serialized count must come in strictly
below the static run's.

Run:  PYTHONPATH=src python benchmarks/bench_elastic.py [--quick]
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SHARDS = 4


def _settings(elastic: bool, lossy: bool, quick: bool):
    from repro.harness.config import SimulationSettings
    from repro.net.faults import FaultPlan

    return SimulationSettings(
        num_clients=12 if quick else 24,
        num_walls=0,
        moves_per_client=16 if quick else 32,
        world_width=4000.0,
        world_height=4000.0,
        spawn="cluster",
        spawn_extent=1000.0,
        move_interval_ms=200.0,
        cost_model="fixed",
        move_cost_ms=1.0,
        eval_overhead_ms=0.1,
        rtt_ms=150.0,
        bandwidth_bps=None,
        seed=11,
        shards=SHARDS,
        elastic=elastic,
        elastic_interval_ms=500.0,
        elastic_threshold=1.5,
        elastic_hysteresis=2,
        fault_plan=(
            FaultPlan(
                loss_rate=0.05, jitter_ms=40.0, duplicate_rate=0.02, seed=7
            )
            if lossy
            else None
        ),
    )


def bench_cell(elastic: bool, lossy: bool, quick: bool) -> dict:
    from repro.harness.runner import run_simulation

    result = run_simulation("seve", _settings(elastic, lossy, quick))
    audit = result.shard_audit
    if audit is None or not audit.consistent:
        raise AssertionError(
            f"elastic={elastic} lossy={lossy}: cross-shard audit failed: "
            f"{audit.summary() if audit else 'missing'}"
        )
    if audit.order_violations:
        raise AssertionError(
            f"elastic={elastic} lossy={lossy}: span-order violations: "
            f"{audit.order_violations}"
        )
    if elastic and result.rebalances < 1:
        raise AssertionError(
            f"lossy={lossy}: the flash crowd never triggered a rebalance"
        )
    return {
        "bottleneck_serialized": max(
            row["serialized"] for row in result.shard_rows
        ),
        "bottleneck_cpu_ms": max(row["cpu_ms"] for row in result.shard_rows),
        "serialized_by_shard": [
            row["serialized"] for row in result.shard_rows
        ],
        "stripes": [list(row["stripe"]) for row in result.shard_rows],
        "rebalances": result.rebalances,
        "rebalance_events": [
            {
                "version": event["version"],
                "at_ms": event["at_ms"],
                "imbalance": round(event["imbalance"], 3),
                "boundaries": [round(cut, 2) for cut in event["boundaries"]],
            }
            for event in result.rebalance_events
        ],
        "virtual_ms": result.virtual_ms,
        "wall_s": result.wall_seconds,
    }


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    sweep: dict = {}
    for condition, lossy in (("clean", False), ("lossy", True)):
        sweep[condition] = {
            "static": bench_cell(elastic=False, lossy=lossy, quick=quick),
            "elastic": bench_cell(elastic=True, lossy=lossy, quick=quick),
        }

    clean = sweep["clean"]
    static_max = clean["static"]["bottleneck_serialized"]
    elastic_max = clean["elastic"]["bottleneck_serialized"]
    reduction = (
        (static_max - elastic_max) / static_max if static_max else 0.0
    )
    passed = elastic_max < static_max
    report = {
        "benchmark": "elastic",
        "description": (
            "Bottleneck-shard cost under a flash crowd straddling the "
            "centre cut of a wide K=4 world, with the live load-aware "
            "rebalancer off vs on, on a clean and a lossy network.  "
            "Every cell asserts the cross-shard span-order/replica "
            "audits inline; elastic cells additionally assert at least "
            "one committed rebalance and a fully drained control plane."
        ),
        "unit": "actions serialized by the hottest shard",
        "shards": SHARDS,
        "sweep": sweep,
        "acceptance": {
            "metric": (
                "clean-run bottleneck_serialized, elastic vs static"
            ),
            "value": elastic_max,
            "threshold": static_max,
            "reduction": round(reduction, 3),
            "passed": passed,
        },
    }
    text = json.dumps(report, indent=2)
    (REPO_ROOT / "BENCH_elastic.json").write_text(text + "\n")
    print(text)
    for condition in ("clean", "lossy"):
        cells = sweep[condition]
        print(
            f"{condition}: bottleneck serialized "
            f"{cells['static']['bottleneck_serialized']} static -> "
            f"{cells['elastic']['bottleneck_serialized']} elastic "
            f"({cells['elastic']['rebalances']} rebalances)"
        )
    gate = report["acceptance"]
    print(
        f"elastic acceptance: bottleneck {gate['value']} vs static "
        f"{gate['threshold']} ({gate['reduction']:.0%} reduction): "
        f"{'PASS' if gate['passed'] else 'FAIL'}"
    )
    return 0 if gate["passed"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
