"""Detection-latency and blast-radius benchmark of the adversary layer
(docs/adversary.md).

Emits ``BENCH_adversary.json`` (repo root)
recording, for every cheating-client model at K ∈ {1, 2, 4} shard
servers, on a clean and on a lossy network:

* ``detection_latency_ms`` — virtual milliseconds from run start to the
  first flag against the cheater.  Every model cheats from its very
  first move, so this is the window in which the lie was live;
* ``blast_radius`` — distinct objects the server admitted as the
  cheater's write targets before quarantine (0 = rejected pre-burn);
* ``detectors`` — which screens fired, with raw hit counts;
* ``overhead`` — wall-clock of an honest run with the detection layer
  *unarmed* vs the adversarial run, for the same settings.

Inline assertions keep the numbers honest: every cell must detect,
quarantine exactly the planned cheater, and leave the honest survivors
consistent — the same contract tests/test_adversary_properties.py pins
at K ≤ 2.

Run:  PYTHONPATH=src python benchmarks/bench_adversary.py [--quick]
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The client every plan corrupts (present at every K).
CHEATER = 2


def _settings(shards: int, lossy: bool, adversary, quick: bool):
    from repro.harness.config import SimulationSettings
    from repro.net.faults import FaultPlan

    return SimulationSettings(
        num_clients=8 if quick else 16,
        num_walls=0,
        moves_per_client=8 if quick else 12,
        world_width=400.0,
        world_height=200.0,
        spawn_extent=40.0,
        seed=11,
        shards=shards,
        rwset_sanitizer="raise",
        fault_plan=(
            FaultPlan(loss_rate=0.05, jitter_ms=30.0, seed=8)
            if lossy
            else None
        ),
        adversary=adversary,
    )


def bench_cell(model: str, shards: int, lossy: bool, quick: bool) -> dict:
    from repro.adversary import AdversaryPlan
    from repro.harness.runner import run_simulation

    plan = AdversaryPlan(assignments=((model, (CHEATER,)),), seed=0)
    result = run_simulation(
        "seve", _settings(shards, lossy, plan, quick)
    )
    if not result.detector_counts:
        raise AssertionError(
            f"{model} went undetected at K={shards} lossy={lossy}"
        )
    if result.clients_quarantined != (CHEATER,):
        raise AssertionError(
            f"{model} K={shards} lossy={lossy}: quarantined "
            f"{result.clients_quarantined}, expected ({CHEATER},)"
        )
    if result.consistency is not None and not result.consistency.consistent:
        raise AssertionError(
            f"{model} K={shards} lossy={lossy}: honest survivors diverged"
        )
    return {
        "detection_latency_ms": min(
            record.at_ms for record in result.detection_records
        ),
        "blast_radius": (result.blast_radius or {}).get(CHEATER, 0),
        "detectors": dict(sorted(result.detector_counts.items())),
        "wall_s": result.wall_seconds,
    }


def bench_overhead(shards: int, quick: bool) -> dict:
    """Wall-clock cost of arming the layer, per K: an honest run with no
    plan vs the same run with a cheater (detector + quarantine paths)."""
    from repro.harness.runner import run_simulation

    honest = run_simulation(
        "seve", _settings(shards, lossy=False, adversary=None, quick=quick)
    )
    cell = bench_cell("forge", shards, lossy=False, quick=quick)
    return {
        "honest_wall_s": honest.wall_seconds,
        "adversarial_wall_s": cell["wall_s"],
    }


def main(argv: list[str]) -> int:
    from repro.adversary import ADVERSARY_MODELS

    quick = "--quick" in argv
    sweep: dict = {}
    worst_latency = 0.0
    for shards in (1, 2, 4):
        by_condition: dict = {}
        for condition, lossy in (("clean", False), ("lossy", True)):
            cells = {}
            for model in ADVERSARY_MODELS:
                cell = bench_cell(model, shards, lossy, quick)
                cells[model] = cell
                worst_latency = max(
                    worst_latency, cell["detection_latency_ms"]
                )
            by_condition[condition] = cells
        by_condition["overhead"] = bench_overhead(shards, quick)
        sweep[str(shards)] = by_condition

    forge_blast = max(
        sweep[k][c]["forge"]["blast_radius"]
        for k in sweep
        for c in ("clean", "lossy")
    )
    report = {
        "benchmark": "adversary",
        "description": (
            "Detection latency (virtual ms from run start to the first "
            "flag against the cheater) and blast radius (write targets "
            "admitted before quarantine) for every cheating-client "
            "model, across shard counts and network conditions.  Every "
            "cell asserts detection, exact quarantine, and honest-"
            "survivor consistency inline."
        ),
        "unit": "virtual milliseconds / admitted write targets",
        "cheater": CHEATER,
        "sweep": sweep,
        "acceptance": {
            "metric": "max detection_latency_ms over all cells",
            "value": worst_latency,
            # Admission screens fire on the first submission and
            # completion screens one commit echo later, but equivocation
            # needs a *second* reporter's conforming echo, and lossy
            # retransmissions stretch both — so the gate is a handful of
            # move periods, not round trips.
            "threshold": 3_000.0,
            "passed": worst_latency <= 3_000.0 and forge_blast == 0,
            "forge_blast_radius": forge_blast,
        },
    }
    text = json.dumps(report, indent=2)
    (REPO_ROOT / "BENCH_adversary.json").write_text(text + "\n")
    print(text)
    for shards, by_condition in sweep.items():
        for condition in ("clean", "lossy"):
            cells = by_condition[condition]
            slowest = max(
                cells, key=lambda m: cells[m]["detection_latency_ms"]
            )
            print(
                f"K={shards} {condition}: slowest detection "
                f"{slowest} at "
                f"{cells[slowest]['detection_latency_ms']:.0f} ms virtual"
            )
    gate = report["acceptance"]
    print(
        f"adversary acceptance: {gate['metric']}={gate['value']:.0f} "
        f"(threshold {gate['threshold']:.0f}, forge blast radius "
        f"{gate['forge_blast_radius']}): "
        f"{'PASS' if gate['passed'] else 'FAIL'}"
    )
    return 0 if gate["passed"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
