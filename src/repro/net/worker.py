"""Worker-process entry point for the parallel backend.

``partition_worker_main`` runs one partition replica of a sharded run
inside a freshly **spawned** interpreter (see
:func:`repro.net.backend.spawn_context` for why spawn, never fork).
Every worker holds the write end of a **result pipe** to the process
that called :func:`~repro.net.backend.run_partitioned` and ships exactly
one message on it: ``("done", PartitionSnapshot)``, or ``("error",
traceback_text)`` before it dies of any exception.

The worker that owns partition 0 is the **lead**: it is handed one end
of a command pipe to every sibling and runs the window coordinator
:func:`~repro.net.backend._drive` over its own replica and those pipes.
Every other worker is a **sibling** and serves the other end of its one
command pipe:

* sibling → lead: ``(owned_clients, BarrierReport)`` once the replica
  is built and its slice activated;
* lead → sibling: ``("window", end, entries)`` — inject the routed
  cross-partition entries, run virtual time up to ``end``, reply with
  the ``BarrierReport``;
* lead → sibling: ``("finish", deadline)`` — stop the owned slice,
  drain, ship the snapshot to the caller and return.  There is no
  reply: the lead is finishing its own replica and waits for nobody.

A peer that hangs up is an exception like any other (``EOFError``,
``BrokenPipeError``), so one death unwinds every worker and the caller
hears from each (docs/parallel.md, "Worker processes").
"""

from __future__ import annotations

import traceback


def partition_worker_main(
    results, architecture: str, settings, partition: int, workers: int, peers
) -> None:
    """Run one :class:`~repro.net.backend.PartitionReplica`: the lead
    (``partition == 0``; ``peers`` = one command pipe per sibling, in
    partition order) drives the windows, a sibling serves ``peers[0]``."""
    from repro.net.backend import PartitionReplica, _drive

    try:
        replica = PartitionReplica(architecture, settings, partition, workers)
        if partition == 0:
            (snapshot,) = _drive([replica], peers, settings, replica.obs)
        else:
            snapshot = _serve(replica, peers[0])
        results.send(("done", snapshot))
    except BaseException:
        try:
            results.send(("error", traceback.format_exc()))
        except Exception:
            pass
        raise
    finally:
        for conn in [results, *peers]:
            conn.close()


def _serve(replica, conn):
    """A sibling's command loop; returns the replica's final snapshot."""
    conn.send(replica.launch())
    while True:
        message = conn.recv()
        command = message[0]
        if command == "window":
            conn.send(replica.run_window(message[1], message[2]))
        elif command == "finish":
            return replica.finish(message[1])
        else:
            raise ValueError(f"unknown worker command: {command!r}")
