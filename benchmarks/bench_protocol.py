"""Benchmark of the protocol conformance toolchain
(docs/static_analysis.md).

Emits ``BENCH_protocol.json`` (repo root)
recording the two halves of the protocol analyzer on the shipped tree:

* **Static flow graph** — files scanned, message types mapped, how many
  are registered / enveloped / conservation-tracked / codec-covered,
  analyzer wall time, and the finding count (must be zero: every
  message has a sender and a handler).  A message *is* one
  declaration — fields that state their kinds under a
  ``@wire_message`` spec — and the codec is compiled from it, so
  registered and codec-covered both equal the number of specs by
  construction; conservation-tracked counts the specs with a
  ``group=``, which the servers' message seam counts on both ends.
* **Schedule-permutation explorer** — scenarios replayed, schedules
  explored, engine runs, perturbable virtual-time windows per
  scenario, and explorer wall time.  The acceptance gate is the
  tentpole claim: all permuted delivery orders hold the invariants
  (quiescence, cross-shard audit, elastic conservation), with the
  identity schedule byte-deterministic.

Run:  PYTHONPATH=src python benchmarks/bench_protocol.py [--quick]
"""

from __future__ import annotations

import json
import pathlib
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SCAN_ROOTS = ["src/repro/core", "src/repro/net", "src/repro/baselines"]


def bench_static() -> dict:
    from repro.analysis.protocol import analyze_paths

    started = time.perf_counter()
    model = analyze_paths(
        [REPO_ROOT / p for p in SCAN_ROOTS], root=REPO_ROOT
    )
    elapsed = time.perf_counter() - started
    flows = model.flows.values()
    return {
        "files_scanned": model.files_scanned,
        "messages": len(model.flows),
        "registered": len(model.flows),
        "enveloped": sum(1 for f in flows if f.enveloped),
        "conservation_tracked": sum(
            1 for f in flows if f.conservation is not None
        ),
        "codec_covered": len(model.flows),
        "handler_sites": sum(len(f.handlers) for f in flows),
        "sender_sites": sum(len(f.senders) for f in flows),
        "findings": len(model.findings),
        "wall_s": round(elapsed, 3),
    }


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
    static = bench_static()
    explorer = bench_explorer(quick)

    passed = static["findings"] == 0 and explorer["ok"]
    report = {
        "benchmark": "protocol",
        "description": (
            "Protocol conformance toolchain on the shipped tree: the "
            "static message-flow graph analyzer over the per-message "
            "wire specs (finding count must be zero) and the "
            "schedule-permutation "
            "race explorer (every permuted delivery order must hold "
            "the invariants; identity schedules byte-deterministic)."
        ),
        "unit": "schedules explored / engine runs / analyzer wall s",
        "static": static,
        "explorer": explorer,
        "acceptance": {
            "metric": "zero static findings and zero schedule violations",
            "static_findings": static["findings"],
            "explorer_ok": explorer["ok"],
            "passed": passed,
        },
    }
    text = json.dumps(report, indent=2)
    (REPO_ROOT / "BENCH_protocol.json").write_text(text + "\n")
    print(text)
    print(
        f"static: {static['messages']} message types over "
        f"{static['files_scanned']} files, {static['findings']} "
        f"finding(s) in {static['wall_s']}s"
    )
    print(
        f"explorer: {explorer['schedules']} schedule(s) / "
        f"{explorer['runs']} run(s) across {explorer['scenarios']} "
        f"scenario(s) in {explorer['wall_s']}s"
    )
    gate = report["acceptance"]
    print(
        f"protocol acceptance: findings={gate['static_findings']}, "
        f"explorer_ok={gate['explorer_ok']}: "
        f"{'PASS' if gate['passed'] else 'FAIL'}"
    )
    return 0 if passed else 1


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
