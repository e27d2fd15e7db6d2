"""One measurement in one fresh process; prints one JSON record.

``run.py`` starts this file once per timed run so that no run inherits
another's heap, caches or peak memory.  It has to be a real file with a
``__main__`` guard: the parallel workload's spawned workers import it
again.

Modes
-----
``timed``     one ``run_simulation`` call, wall-timed.
``setup``     the same with ``moves_per_client=0``, ``--reps`` times.
``traced``    ``timed`` with the probes installed and a root span around
              the call; also reports the per-layer table.
``observed``  ``timed`` with ``Observer(trace=True, profile=True)``.

Every run is timed under a :class:`calib.Speedometer`; ``wall_s`` is in
calibrated seconds, ``raw_wall_s`` is what the clock said.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

import calib  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident memory of this process, plus that of its largest
    waited-for child when the workload spawns workers.

    Own memory is ``VmHWM`` from ``/proc``: ``ru_maxrss`` survives
    ``exec``, so it would start at the (larger) parent's peak."""
    with open("/proc/self/status") as status:
        peak_kib = next(
            int(line.split()[1]) for line in status if line.startswith("VmHWM:")
        )
    if with_children:
        peak_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kib / 1024.0


def timed_call(settings, *, obs=None) -> dict:
    """Raw and calibrated wall seconds, and the deterministic outcome,
    of one ``run_simulation`` call."""
    from repro.harness.runner import run_simulation

    with calib.Speedometer() as speedometer:
        started = time.perf_counter()
        result = run_simulation(workloads.ARCHITECTURE, settings, obs=obs)
        raw = time.perf_counter() - started
    return {
        "raw_wall_s": raw,
        "wall_s": (raw - speedometer.probe_s) * speedometer.speed,
        "speed": speedometer.speed,
        "sim": workloads.sim_record(result),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=("timed", "setup", "traced", "observed"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--sim-seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--twin", action="store_true",
                        help="run the in-process windowed twin of the workload")
    parser.add_argument("--trace-out", help="write the spans as a Chrome trace here")
    args = parser.parse_args()

    from repro.harness.config import SimulationSettings

    fields = workloads.settings_fields(args.workload, args.scale)
    spawns_workers = fields.get("backend") == "parallel" and not args.twin
    if args.twin:
        fields = workloads.twin_fields(fields)
    settings = SimulationSettings(seed=args.sim_seed, **fields)

    if args.mode == "setup":
        empty = settings.with_(moves_per_client=0)
        record = {"runs": [timed_call(empty) for _ in range(args.reps)]}
    elif args.mode == "observed":
        from repro.obs import Observer

        record = timed_call(settings, obs=Observer(trace=True, profile=True))
    elif args.mode == "traced":
        import layers

        record = layers.traced_call(settings, args.trace_out)
    else:
        record = timed_call(settings)
    record["peak_rss_mb"] = peak_rss_mb(spawns_workers)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
