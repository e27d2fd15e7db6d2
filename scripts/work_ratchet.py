#!/usr/bin/env python
"""The work ratchet (docs/performance.md, "Work whose inputs have not
changed is not redone").

Runs the smoke-scale ``crowd_k1`` and ``sprawl_k4`` shapes of
``benchmarks/perf/workloads.py`` (spelled out below, seed 1000) and
counts three kinds of repeated work by wrapping them: the server's
Algorithm 6 closure walks (the full walks, ``transitive_closure``, and
a push cycle's one walk per entry, ``all_sent_walk``), the evaluations of
a move (``MoveAction.compute``) and the push path's re-nominations of a
client's window (``IncompleteWorldServer._renominated``, the fallback
for a client that drifted past the margin; docs/performance.md,
"Nominate once").  Every count repeats exactly for a seed.  Exits 1
when one is above its ceiling.  Like the code-size
and window ratchets, a ceiling may only come down: a change that saves
work lowers it to what it lands.

    PYTHONPATH=src python scripts/work_ratchet.py
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.core import server_incomplete  # noqa: E402
from repro.harness.config import SimulationSettings  # noqa: E402
from repro.harness.runner import run_simulation  # noqa: E402
from repro.world.movement import MoveAction  # noqa: E402

#: Shape -> (settings, ceilings of ``(closure walks, move evaluations,
#: re-nominations)``).  Before a blocked client waited on its blocker and
#: a move was evaluated once per distinct input, the first two counts
#: were 250 / 311 and 259 / 335; before nominations carried a drift
#: margin, the re-nominations were 3 and 52; before a span's owner-shard
#: clients got its code, ``sprawl_k4`` read 257 walks and 2 re-nominations;
#: while a late closure entry waited for the commit frontier, 250 and
#: 204 walks; before a push cycle walked once per entry, 246 and 202.
SHAPES = {
    "crowd_k1": (
        SimulationSettings(num_clients=16, num_walls=2_000, moves_per_client=4, seed=1000),
        (69, 72, 0),
    ),
    "sprawl_k4": (
        SimulationSettings(
            num_clients=48, num_walls=500, moves_per_client=3, world_width=600.0,
            spawn="uniform", shards=4, seed=1000,
        ),
        (147, 146, 0),
    ),
}
WHAT = ("closure walks", "move evaluations", "re-nominations")


def count_work(settings: SimulationSettings) -> tuple:
    """``(closure walks, move evaluations, re-nominations)`` of one run
    of ``settings``."""
    counts = [0, 0, 0]
    server_class = server_incomplete.IncompleteWorldServer
    walk, compute = server_incomplete.transitive_closure, MoveAction.compute
    all_sent, renominated = server_incomplete.all_sent_walk, server_class._renominated

    def counted_walk(*args, **kwargs):
        counts[0] += 1
        return walk(*args, **kwargs)

    def counted_all_sent(*args, **kwargs):
        counts[0] += 1
        return all_sent(*args, **kwargs)

    def counted_compute(action, *args):
        counts[1] += 1
        return compute(action, *args)

    def counted_renominated(*args):
        counts[2] += 1
        return renominated(*args)

    server_incomplete.transitive_closure, MoveAction.compute = counted_walk, counted_compute
    server_incomplete.all_sent_walk, server_class._renominated = counted_all_sent, counted_renominated
    try:
        run_simulation("seve", settings)
    finally:
        server_incomplete.transitive_closure, MoveAction.compute = walk, compute
        server_incomplete.all_sent_walk, server_class._renominated = all_sent, renominated
    return tuple(counts)


def main() -> int:
    failed = False
    for name, (settings, ceilings) in SHAPES.items():
        counts = count_work(settings)
        for what, count, ceiling in zip(WHAT, counts, ceilings):
            print(f"work_ratchet: {name} {what} {count} (ceiling {ceiling})")
            failed |= count > ceiling
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
