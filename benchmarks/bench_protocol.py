"""Benchmark of the schedule-permutation race explorer
(docs/static_analysis.md).

Emits ``BENCH_protocol.json`` (repo root) recording scenarios replayed,
schedules explored, engine runs, perturbable virtual-time windows per
scenario, and explorer wall time.  The acceptance gate: all permuted
delivery orders hold the invariants (quiescence, cross-shard audit,
elastic conservation), with the identity schedule byte-deterministic.  The protocol's shape (every message handled, every
handled type spec'd and sent) is a test-suite assertion over the runtime
dispatch tables, ``tests/test_message_seam.py``, and is not timed here.

Run:  PYTHONPATH=src python benchmarks/bench_protocol.py [--quick]
"""

from __future__ import annotations

import json
import pathlib
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def bench_explorer(quick: bool) -> dict:
    from repro.analysis.races import explore

    budget = 4 if quick else 12
    started = time.perf_counter()
    report = explore(budget=budget)
    elapsed = time.perf_counter() - started
    return {
        "budget": budget,
        "scenarios": len(report.results),
        "schedules": report.total_schedules,
        "runs": report.total_runs,
        "per_scenario": [
            {
                "scenario": result.scenario,
                "schedules": result.schedules,
                "runs": result.runs,
                "perturbable_windows": result.perturbable_windows,
                "deterministic": result.deterministic,
                "violations": len(result.violations),
            }
            for result in report.results
        ],
        "ok": report.ok,
        "wall_s": round(elapsed, 3),
    }


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    explorer = bench_explorer(quick)

    report = {
        "benchmark": "protocol",
        "description": (
            "Schedule-permutation race explorer on the shipped tree: "
            "every permuted delivery order must hold the invariants; "
            "identity schedules byte-deterministic."
        ),
        "unit": "schedules explored / engine runs / explorer wall s",
        "explorer": explorer,
        "acceptance": {
            "metric": "zero schedule violations",
            "explorer_ok": explorer["ok"],
            "passed": explorer["ok"],
        },
    }
    text = json.dumps(report, indent=2)
    (REPO_ROOT / "BENCH_protocol.json").write_text(text + "\n")
    print(text)
    print(
        f"explorer: {explorer['schedules']} schedule(s) / "
        f"{explorer['runs']} run(s) across {explorer['scenarios']} "
        f"scenario(s) in {explorer['wall_s']}s"
    )
    print(
        f"protocol acceptance: explorer_ok={explorer['ok']}: "
        f"{'PASS' if explorer['ok'] else 'FAIL'}"
    )
    return 0 if explorer["ok"] else 1


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
