#!/usr/bin/env python
"""The memory ratchet (docs/performance.md, "Wall-collision kernel",
"Replicas own, not mirror" and "The audit runs where the replicas
live").

Measures, with ``tracemalloc``, the bytes two built things hold:

* the paper's Table I world (``SimulationSettings()`` defaults: 100 000
  walls over 1000 x 1000, 64 avatars, seed 0), built the way every
  process of a run builds it — almost all of it the wall field;
* a partition replica of one fixed sharded shape (256 clients spread
  over 1000 x 1000, 1 000 walls, K = 4, seed 0): the one replica of
  W = 1, and partition 0 of W = 2, which builds only its two shards and
  the clients homed on them.

It also counts what crosses a pipe at the end of a run: the pickled
bytes of each partition's end-of-run snapshot (what a worker ships to
the caller) on the smoke-scale ``sprawl_k4_par`` shape of
``benchmarks/perf/workloads.py`` at W = 2, seed 1000, stepped in
process.  That count is deterministic.

Each count repeats exactly for an interpreter version.  Exits 1 when
one is above its ceiling.  Like the code-size, window and work ratchets,
the ceilings may only come down: a change that shrinks what is built
lowers them to what it lands.

    PYTHONPATH=src python scripts/memory_ratchet.py
"""
import gc
import pathlib
import sys
import tracemalloc
from multiprocessing.reduction import ForkingPickler

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.harness.architectures import build_world  # noqa: E402
from repro.harness.config import SimulationSettings  # noqa: E402
from repro.net.backend import PartitionReplica, _drive  # noqa: E402

#: Bytes.  While the field kept a frozen ``Wall`` and two ``Vec2`` s per
#: wall plus a record tuple, the same world held 42 951 432; while it
#: also kept four coordinate columns beside its cell records, 8 442 208.
CEILING = 5_241_916
#: The replica shape.
REPLICA = SimulationSettings(
    num_clients=256, num_walls=1_000, world_width=1000.0, spawn="uniform",
    shards=4, seed=0,
)  # fmt: skip
#: Bytes per ``(workers, partition)``.  While every replica mirrored the
#: whole deployment and each client built its star links to every shard
#: at registration, they held 2 906 551 and 2 902 479; while each client
#: kept its optimistic replica as a full copy of its stable one,
#: 2 384 551 and 1 329 097; while each shard's gsn lease kept its own
#: bound dispatch table and the handoff barrier's three maps lived on
#: the server, 2 278 735 and 1 274 745; while the span pipeline's state
#: lived on the server beside a per-client count of span forwards and
#: the sequencer's dedup was a set, 2 277 359 and 1 274 041; while every
#: host, link, client and server kept its own observer reference,
#: 2 276 879 and 1 273 801; while the wall field kept its coordinate
#: columns, 2 274 599 and 1 272 617; while every shard server kept its
#: own server cost table, 2 240 387 and 1 239 301; while every client
#: kept a retry-policy reference beside its jitter seed, 2 240 163 and
#: 1 239 093.
REPLICA_CEILINGS = {(1, 0): 2_225_659, (2, 0): 1_231_477}
#: The run whose end-of-run snapshots are weighed.
SNAPSHOT = SimulationSettings(
    num_clients=48, num_walls=500, moves_per_client=3, world_width=600.0,
    spawn="uniform", shards=4, workers=2, seed=1000,
)  # fmt: skip
#: Pickled bytes per partition.  While a snapshot carried its shards'
#: stores and gsn maps and its clients' stable replicas and observation
#: logs (the audit ran in the caller), 39 946 and 36 233; while each
#: client row carried its own counters, 7 763 and 6 915; while each
#: shard row carried its server's cost table, 7 231 and 6 479.
SNAPSHOT_CEILINGS = [7_102, 6_350]


def traced(build, warm) -> int:
    """Bytes what ``build()`` returns holds once built."""
    warm()  # first-call caches, outside the count
    # A full collection empties the interpreter's free lists, so every
    # tuple, list and float the build makes is a traced allocation, not a
    # recycled one whose count would depend on what ran before.
    gc.collect()
    tracemalloc.start()
    try:
        built = build()
        size, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del built
    return size


def traced_bytes() -> int:
    """Bytes the Table I world holds once built."""
    settings = SimulationSettings()
    return traced(
        lambda: build_world(settings),
        lambda: build_world(settings.with_(num_walls=0)),
    )


def replica_bytes(workers: int, partition: int) -> int:
    """Bytes partition ``partition`` of a ``workers``-way run of the
    replica shape holds once built."""
    settings = REPLICA.with_(workers=workers)
    return traced(
        lambda: PartitionReplica("seve", settings, partition, workers),
        lambda: PartitionReplica("seve", REPLICA.with_(num_clients=4, num_walls=0), 0, 1),
    )


def snapshot_bytes() -> list:
    """Pickled bytes of each partition's end-of-run snapshot of the
    ``SNAPSHOT`` run, as a worker would send it."""
    replicas = [PartitionReplica("seve", SNAPSHOT, p, 2) for p in range(2)]
    snapshots = _drive(replicas, [], SNAPSHOT)
    return [len(ForkingPickler.dumps(snapshot)) for snapshot in snapshots]


def main() -> int:
    size = traced_bytes()
    print(f"memory_ratchet: Table I world {size} bytes (ceiling {CEILING})")
    over = size > CEILING
    sizes = {}
    for (workers, partition), ceiling in REPLICA_CEILINGS.items():
        sizes[workers] = replica_bytes(workers, partition)
        print(
            f"memory_ratchet: replica {partition} of W = {workers} "
            f"{sizes[workers]} bytes (ceiling {ceiling})"
        )
        over |= sizes[workers] > ceiling
    print(f"memory_ratchet: W = 2 / W = 1 {sizes[2] / sizes[1]:.3f}")
    weighed = zip(snapshot_bytes(), SNAPSHOT_CEILINGS)
    for partition, (size, ceiling) in enumerate(weighed):
        print(
            f"memory_ratchet: end-of-run snapshot of partition {partition} "
            f"{size} bytes pickled (ceiling {ceiling})"
        )
        over |= size > ceiling
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
