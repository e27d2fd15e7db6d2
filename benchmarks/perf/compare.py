"""Compare two suite reports (``run.py --out``) under BENCHMARK.json's bounds.

    python3 benchmarks/perf/compare.py A.json B.json [--exact]

One row per end-to-end metric and workload.  ``B`` is the candidate:
``REGRESSION`` when its median is worse than ``A``'s by more than the
metric's bound, ``unresolved`` when either side's inter-quartile spread
is wider than the bound (the runs cannot tell), else ``ok``.  Exits
non-zero on a regression or when ``failed_ops`` rose.

``--exact`` also fails when any simulated metric or exact count differs:
two reports of the same commit, or of a change that claims to touch
wall-clock only, must agree on those to the last digit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))


def spread(stats: dict) -> float:
    """Inter-quartile distance as a share of the median."""
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def compare(a: dict, b: dict, spec: dict, exact: bool) -> int:
    failures = 0
    print(f"{'workload':<14} {'metric':<28} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][workload], b["workloads"][workload]
        if side_b["failed_ops"] > side_a["failed_ops"]:
            failures += 1
            print(f"{workload:<14} failed_ops rose: {side_a['failed_ops']} -> {side_b['failed_ops']}")
        if "end_to_end" not in side_a or "end_to_end" not in side_b:
            continue  # a workload that failed its gate has no numbers to compare
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats_a, stats_b = side_a["end_to_end"][name], side_b["end_to_end"][name]
            change = (stats_b["median"] - stats_a["median"]) / stats_a["median"]
            worse = change if metric["better"] == "lower" else -change
            if exact and name.startswith("sim_") and stats_a["median"] != stats_b["median"]:
                verdict = "DIFFERS"
            elif max(spread(stats_a), spread(stats_b)) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            failures += verdict in ("REGRESSION", "DIFFERS")
            print(f"{workload:<14} {name:<28} {stats_a['median']:>12.4f} "
                  f"{stats_b['median']:>12.4f} {100 * worse:>8.2f}% {100 * bound:>5.1f}%  {verdict}")
        if exact and side_a["counts"] != side_b["counts"]:
            failures += 1
            print(f"{workload:<14} exact counts differ: {side_a['counts']} vs {side_b['counts']}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--exact", action="store_true",
                        help="simulated metrics and exact counts must be equal")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(args.a) as handle:
        a = json.load(handle)
    with open(args.b) as handle:
        b = json.load(handle)
    failures = compare(a, b, spec, args.exact)
    print("\n" + (f"{failures} failure(s)" if failures else "no regression"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
