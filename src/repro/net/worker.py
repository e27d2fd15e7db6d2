"""Worker-process entry point for the parallel backend.

``partition_worker_main`` runs one partition replica of a sharded run
inside a freshly **spawned** interpreter (see
:func:`repro.net.backend.spawn_context` for why spawn, never fork) and
speaks a tiny command protocol over a ``multiprocessing`` pipe:

* worker → coordinator: ``("ready", owned_clients, BarrierReport)``
  once the replica is built and its slice activated;
* coordinator → worker: ``("window", end, entries)`` — inject the
  routed cross-partition entries, run virtual time up to ``end``,
  reply ``("barrier", BarrierReport)``;
* coordinator → worker: ``("finish", deadline)`` — stop the owned
  slice, drain, reply ``("done", PartitionSnapshot)``;
* coordinator → worker: ``("exit",)`` — return (process ends).

Any exception is reported as ``("error", traceback_text)`` before the
worker dies, so the coordinator can surface the real stack trace
instead of a bare ``EOFError``.
"""

from __future__ import annotations

import traceback


def partition_worker_main(
    conn, architecture: str, settings, partition: int, workers: int
) -> None:
    """Run one :class:`~repro.net.backend.PartitionReplica` behind a pipe."""
    from repro.net.backend import PartitionReplica

    try:
        replica = PartitionReplica(architecture, settings, partition, workers)
        replica.start()
        conn.send(("ready", replica.owned_clients, replica.report()))
        while True:
            message = conn.recv()
            command = message[0]
            if command == "window":
                conn.send(("barrier", replica.run_window(message[1], message[2])))
            elif command == "finish":
                conn.send(("done", replica.finish(message[1])))
            elif command == "exit":
                return
            else:
                raise ValueError(f"unknown worker command: {command!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
        raise
    finally:
        conn.close()

