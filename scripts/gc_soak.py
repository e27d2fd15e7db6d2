#!/usr/bin/env python
"""Soak check for the parked garbage collector (docs/performance.md,
"The run parks the collector").

Makes ``ROUNDS`` back-to-back rounds of two ``run_simulation`` calls in
this one interpreter: the smoke-scale ``sprawl`` shape of
``benchmarks/perf/workloads.py`` at K = 1 and at K = 4.  Exits 1 when
a call leaves the collector in another state than it found it, or when
the resident set after the last round exceeds the one after round
``SETTLED`` by more than ``MARGIN_MB``.  That growth is what a run
whose reference cycles pile up while the collector is parked, or a
collector left off, looks like from outside.

    PYTHONPATH=src python scripts/gc_soak.py
"""
import gc
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "perf"))

import workloads  # noqa: E402

from repro.harness.config import SimulationSettings  # noqa: E402
from repro.harness.runner import run_simulation  # noqa: E402

ROUNDS = 30
#: Round after which the interpreter's own caches have warmed up.
SETTLED = 3
#: Allowed VmRSS growth from round SETTLED to the last.  Measured on a
#: 2-vCPU Linux host, Python 3.11: +0.0 MB with the collector restored,
#: +51 MB with it left off after each run, and +51 MB as well when each
#: run's survivors were moved to the oldest generation unscanned
#: (``gc.freeze()`` then ``gc.unfreeze()``): the dead engines then wait
#: for a full collection that did not come within the 30 rounds.
MARGIN_MB = 4.0


def rss_mb() -> float:
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmRSS:")) / 1024


def main() -> int:
    fields = workloads.settings_fields("sprawl_k1", "smoke")
    state = (gc.isenabled(), gc.get_threshold())
    settled = None
    for round_ in range(1, ROUNDS + 1):
        for shards in (1, 4):
            run_simulation("seve", SimulationSettings(seed=round_, shards=shards, **fields))
            if (gc.isenabled(), gc.get_threshold()) != state:
                print(f"gc_soak: round {round_}, K = {shards} left the collector "
                      f"{(gc.isenabled(), gc.get_threshold())}, found it {state}")
                return 1
        if round_ == SETTLED:
            settled = rss_mb()
    growth = rss_mb() - settled
    print(f"gc_soak: VmRSS {growth:+.1f} MB from round {SETTLED} to {ROUNDS} "
          f"(margin {MARGIN_MB} MB)")
    return 0 if growth <= MARGIN_MB else 1


if __name__ == "__main__":
    sys.exit(main())
