#!/usr/bin/env python
"""The memory ratchet (docs/performance.md, "Wall-collision kernel").

Builds the paper's Table I world (``SimulationSettings()`` defaults:
100 000 walls over 1000 x 1000, 64 avatars, seed 0) the way every
process of a run does, and measures the bytes it holds with
``tracemalloc``, almost all of it the wall field.  The count repeats
exactly for an interpreter version.  Exits 1 when it is above the
ceiling.  Like the code-size, window and work ratchets, the ceiling may
only come down: a change that shrinks the world lowers it to what it
lands.

    PYTHONPATH=src python scripts/memory_ratchet.py
"""
import gc
import pathlib
import sys
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.harness.architectures import build_world  # noqa: E402
from repro.harness.config import SimulationSettings  # noqa: E402

#: Bytes.  While the field kept a frozen ``Wall`` and two ``Vec2`` s per
#: wall plus a record tuple, the same world held 42 951 432.
CEILING = 8_442_272


def traced_bytes() -> int:
    """Bytes the Table I world holds once built."""
    settings = SimulationSettings()
    build_world(settings.with_(num_walls=0))  # first-call caches, outside the count
    # A full collection empties the interpreter's free lists, so every
    # tuple, list and float the build makes is a traced allocation, not a
    # recycled one whose count would depend on what ran before.
    gc.collect()
    tracemalloc.start()
    try:
        world = build_world(settings)
        size, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del world
    return size


def main() -> int:
    size = traced_bytes()
    print(f"memory_ratchet: Table I world {size} bytes (ceiling {CEILING})")
    return 1 if size > CEILING else 0


if __name__ == "__main__":
    sys.exit(main())
