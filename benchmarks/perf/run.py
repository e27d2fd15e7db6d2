"""The repo's one performance benchmark (see README.md beside this file).

Single run, the form the benchmark driver calls::

    python3 benchmarks/perf/run.py --workload crowd_k1 --seed 1 --seconds 10 --trace 0

prints one JSON line ``{"correct", "attempted", "failed", "metrics"}``
with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that BENCHMARK.json names.

Full suite, for people::

    python3 benchmarks/perf/run.py [--seed S] [--reps R] [--workload NAME] [--out FILE]

runs every workload ``R`` times round-robin plus one traced run each,
prints every metric by name with its unit, applies the correctness gate,
appends one line to ``results/history.jsonl`` and exits non-zero on any
failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: Set-up repetitions per run; the median is reported.
SETUP_REPS = 5
#: A run must print its result within 180 s; no single child may eat that.
CHILD_TIMEOUT_S = 150
#: Workloads that also run once under the program's own Observer.
OBSERVED = ("crowd_k1", "sprawl_k1")
#: Fields of a sim record that are end-to-end metrics.
SIM_METRICS = (
    "sim_response_ms_p50",
    "sim_response_ms_p99",
    "sim_response_ms_mean",
    "sim_traffic_kb_per_client",
    "sim_confirmed_pct",
)


class Breach(Exception):
    """A correctness check failed; the message names workload and field."""


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def child(mode: str, workload: str, sim_seed: int, scale: str, *extra: str) -> dict:
    """Run ``child.py`` in a fresh interpreter and parse its record."""
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--mode", mode, "--workload", workload,
        "--sim-seed", str(sim_seed), "--scale", scale, *extra,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise Breach(f"{workload}: {mode} run failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def check_sim(workload: str, sim: dict) -> None:
    """The per-run part of the gate: Theorem 1 / shard audit hold and
    every submitted move ended confirmed or dropped by the protocol."""
    if not sim["consistent"]:
        raise Breach(f"{workload}: consistency (Theorem 1 / shard audit) failed")
    if sim["ops"] != sim["responses"] + sim["dropped"]:
        raise Breach(
            f"{workload}: ops {sim['ops']} != responses {sim['responses']} "
            f"+ dropped {sim['dropped']} (unresolved moves at quiescence)"
        )


def check_same(workload: str, what: str, expected: dict, actual: dict) -> None:
    for field, value in expected.items():
        if actual[field] != value:
            raise Breach(
                f"{workload}: {field} differs {what}: {value!r} vs {actual[field]!r}"
            )


def measure_end_to_end(workload: str, seed: int, seconds: float, scale: str) -> dict:
    """One tracing-off run: set-up samples, then timed simulations on
    ``SUBSEEDS`` sub-seeds, cycling through them again while fewer than
    ``seconds`` have passed.  Each metric is the mean over sub-seeds of
    the median over that sub-seed's samples."""
    setup = child(
        "setup", workload, workloads.subseed(seed, 0), scale, "--reps", str(SETUP_REPS)
    )
    samples: List[List[dict]] = [[] for _ in range(workloads.SUBSEEDS)]
    started = time.monotonic()
    index = 0
    while index < workloads.SUBSEEDS or time.monotonic() - started < seconds:
        slot = index % workloads.SUBSEEDS
        samples[slot].append(
            child("timed", workload, workloads.subseed(seed, slot), scale)
        )
        index += 1
    sims = []
    for slot_samples in samples:
        sims.append(slot_samples[0]["sim"])
        check_sim(workload, sims[-1])
        for again in slot_samples[1:]:
            check_same(workload, "between repetitions", sims[-1], again["sim"])

    def pooled(read) -> float:
        return statistics.mean(
            statistics.median(read(sample) for sample in slot_samples)
            for slot_samples in samples
        )

    metrics = {
        "wall_s": pooled(lambda sample: sample["wall_s"]),
        "setup_s": statistics.median(run["wall_s"] for run in setup["runs"]),
        "peak_rss_mb": pooled(lambda sample: sample["peak_rss_mb"]),
    }
    for name in SIM_METRICS:
        metrics[name] = statistics.mean(sim[name] for sim in sims)
    return {
        "metrics": metrics,
        "ops": sum(sim["ops"] for sim in sims),
        "sims": sims,
        "raw_wall_s": pooled(lambda sample: sample["raw_wall_s"]),
        "speeds": [sample["speed"] for group in samples for sample in group],
    }


def measure_layers(
    workload: str, seed: int, scale: str, trace_out: Optional[str] = None
) -> dict:
    """One traced run on sub-seed 0, next to the untraced runs it is
    checked against.  The parallel workload traces its in-process twin
    (spans cannot cross processes) and checks the twin against it."""
    sim_seed = workloads.subseed(seed, 0)
    parallel = workloads.WORKLOADS[workload].get("backend") == "parallel"
    flavour = ("--twin",) if parallel else ()
    reference = child("timed", workload, sim_seed, scale, *flavour)
    check_sim(workload, reference["sim"])
    trace_args = ("--trace-out", trace_out) if trace_out else ()
    traced = child("traced", workload, sim_seed, scale, *flavour, *trace_args)
    check_same(workload, "under tracing", reference["sim"], traced["sim"])

    metrics = dict(traced["per_layer"])
    metrics["trace.overhead_pct"] = 100.0 * (traced["wall_s"] / reference["wall_s"] - 1.0)
    if metrics["core.messages.pickle_fallbacks"]:
        raise Breach(f"{workload}: core.messages.pickle_fallbacks != 0")
    metrics["net.backend.inproc_windowed_wall_s"] = 0.0
    if parallel:
        spawned = child("timed", workload, sim_seed, scale)
        check_same(workload, "between parallel and inproc twin", reference["sim"], spawned["sim"])
        metrics["net.backend.inproc_windowed_wall_s"] = reference["wall_s"]
    metrics["obs.observed_wall_s"] = metrics["obs.observer_overhead_pct"] = 0.0
    if workload in OBSERVED:
        observed = child("observed", workload, sim_seed, scale)
        check_same(workload, "under the Observer", reference["sim"], observed["sim"])
        metrics["obs.observed_wall_s"] = observed["wall_s"]
        metrics["obs.observer_overhead_pct"] = 100.0 * (
            observed["wall_s"] / reference["wall_s"] - 1.0
        )
    return {
        "metrics": metrics,
        "ops": reference["sim"]["ops"],
        "sims": [reference["sim"]],
        "layers": traced["layers"],
        "speeds": [reference["speed"], traced["speed"]],
    }


def planned_ops(workload: str, scale: str, sims: int) -> int:
    fields = workloads.settings_fields(workload, scale)
    return sims * fields["num_clients"] * fields["moves_per_client"]


def single_run(args, spec: dict) -> int:
    """The driver's form: one workload, one JSON line, exit 0 if correct."""
    traced = args.trace == 1
    try:
        if traced:
            outcome = measure_layers(args.workload, args.seed, args.scale, args.trace_out)
        else:
            outcome = measure_end_to_end(args.workload, args.seed, args.seconds, args.scale)
        correct, attempted, failed = True, outcome["ops"], 0
        values = outcome["metrics"]
    except (Breach, subprocess.TimeoutExpired) as problem:
        # A run that raises, times out or fails a check fails all its moves.
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
        attempted = planned_ops(args.workload, args.scale, 1 if traced else workloads.SUBSEEDS)
        correct, failed, values = False, attempted, {}
    wanted = spec["per_layer" if traced else "end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in wanted
            if metric["name"] in values
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Full suite
# ---------------------------------------------------------------------------
def summary(values: List[float]) -> dict:
    """Median, quartiles, extremes and n of one metric's repetitions."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def git_state() -> dict:
    """Commit and dirty flag; ``unknown`` outside a git checkout."""
    def git(*command: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", "-C", ROOT, *command], capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {"commit": commit or "unknown", "dirty": bool(status) if commit else None}


def suite(args, spec: dict) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    breaches: List[str] = []
    speeds: List[float] = []

    def attempt(check, *arguments):
        """``check(*arguments)``, with a failed check recorded, not raised."""
        try:
            return check(*arguments)
        except (Breach, subprocess.TimeoutExpired) as problem:
            breaches.append(str(problem))
            print(f"FAILED CHECK: {problem}", file=sys.stderr)
            return None

    runs: Dict[str, List[dict]] = {name: [] for name in names}
    for rep in range(args.reps):
        for name in names:  # round-robin, so drift hits every workload alike
            print(f"[rep {rep + 1}/{args.reps}] {name}", file=sys.stderr)
            runs[name].append(
                attempt(measure_end_to_end, name, args.seed, args.seconds, args.scale)
            )
    report: Dict[str, dict] = {}
    for name in names:
        print(f"[trace] {name}", file=sys.stderr)
        traced = attempt(measure_layers, name, args.seed, args.scale)
        done = runs[name]
        if traced is None or None in done:
            ops = planned_ops(name, args.scale, workloads.SUBSEEDS)
            report[name] = {"ops": ops, "failed_ops": ops}
            continue
        for again in done[1:] + [traced]:  # the traced run covers sub-seed 0 only
            for first, second in zip(done[0]["sims"], again["sims"]):
                attempt(check_same, name, "between repetitions", first, second)
        speeds.extend(speed for run in done + [traced] for speed in run["speeds"])
        report[name] = {
            "ops": done[0]["ops"],
            "failed_ops": 0,
            "counts": {
                field: [sim[field] for sim in done[0]["sims"]]
                for field in ("ops", "responses", "dropped", "events")
            },
            "end_to_end": {
                metric: summary([run["metrics"][metric] for run in done])
                for metric in done[0]["metrics"]
            },
            "raw_wall_s": summary([run["raw_wall_s"] for run in done]),
            "per_layer": traced["metrics"],
            "layers": traced["layers"],
        }

    for name, entry in report.items():
        print(f"\n== {name}: ops {entry['ops']}, failed_ops {entry['failed_ops']}")
        for metric, stats in entry.get("end_to_end", {}).items():
            print(
                f"  {metric:<28} {stats['median']:>14.4f} {units[metric]:<6}"
                f" q1 {stats['q1']:.4f} q3 {stats['q3']:.4f}"
                f" min {stats['min']:.4f} max {stats['max']:.4f} n {stats['n']}"
            )
        for metric, value in sorted(entry.get("per_layer", {}).items()):
            print(f"  {metric:<44} {value:>16.6f} {units[metric]}")

    record = {
        **git_state(),
        "seed": args.seed,
        "scale": args.scale,
        "reps": args.reps,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        # Speed factor of every timed child: 1.0 = probes at their reference time.
        "calibration": summary(speeds) if speeds else None,
        "breaches": breaches,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({**record, "workloads": report}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.scale == "full" and not args.workload:
        # Only a full run is a measurement worth a line in the ledger.
        record["medians"] = {
            name: {m: stats["median"] for m, stats in entry.get("end_to_end", {}).items()}
            for name, entry in report.items()
        }
        with open(os.path.join(HERE, "results", "history.jsonl"), "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    print("\ncorrectness gate:", f"FAILED ({len(breaches)} breaches)" if breaches else "passed")
    return 1 if breaches else 0


def main() -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="keep taking timed samples for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="single run: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--trace-out", help="with --trace 1: write a Chrome trace here")
    parser.add_argument("--reps", type=int, default=3, help="suite: repetitions per workload")
    parser.add_argument("--out", help="suite: write the full report here as JSON")
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmarks/perf: src/repro is missing; nothing to measure", file=sys.stderr)
        return 2
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return single_run(args, spec)
    return suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
