"""Worker-process entry point for the parallel backend.

``partition_worker_main`` runs one partition replica of a sharded run
in a process of its own: forked from the caller on single-threaded
Linux, a freshly spawned interpreter elsewhere
(:func:`repro.net.backend.start_context`).  Both run this same code.  A
forked worker first closes every pipe end it inherited but does not
own — the caller's result read ends and the other workers' command
ends — since a pipe reads end-of-file only once every copy of its
other end is closed; a spawned one was never handed those, and closes
nothing.

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
  drain, run the local pass of the audit and reply with the offer
  ``(residue, span_gsns)``;
* lead → sibling: ``("audit", residues, gsns)`` — answer for the owned
  stores on the other partitions' residue, check the owned clients'
  span order, ship the snapshot to the caller and return.  There is no
  reply: the lead is answering for its own replica and waits for
  nobody.

A peer that hangs up is an exception like any other (``EOFError``,
``BrokenPipeError``), so one death unwinds every worker and the caller
hears from each (docs/parallel.md, "Worker processes").  So is garbage
on a command pipe: a command of the wrong shape is a
:class:`~repro.errors.SimulationError`, a corrupt frame inside a window
entry a :class:`~repro.core.messages.CodecError`.
"""

from __future__ import annotations

import traceback

from repro.errors import SimulationError


def partition_worker_main(
    results,
    architecture: str,
    settings,
    partition: int,
    workers: int,
    peers,
    foreign,
    obs=None,
) -> None:
    """Run one :class:`~repro.net.backend.PartitionReplica`: the lead
    (``partition == 0``; ``peers`` = one command pipe per sibling, in
    partition order) drives the windows, a sibling serves ``peers[0]``.
    ``foreign`` are the inherited pipe ends that belong to others
    (empty unless forked); they are closed before anything else.
    ``obs`` is the replica's observer (an empty one of the caller's
    shape, or ``None``); the snapshot carries it back.  The
    cyclic garbage collector stays off for the worker's whole life, as
    it does for a run in the caller."""
    for conn in foreign:
        conn.close()

    from repro.net.backend import PartitionReplica, _drive
    from repro.net.simulator import parked_collector

    with parked_collector():
        try:
            replica = PartitionReplica(architecture, settings, partition, workers)
            replica.engine.sim.obs = obs
            if partition == 0:
                (snapshot,) = _drive([replica], peers, settings, obs)
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
        if not (isinstance(message, tuple) and message):
            raise SimulationError(f"malformed worker command: {message!r:.80}")
        command = message[0]
        if command == "window" and len(message) == 3:
            conn.send(replica.run_window(message[1], message[2]))
        elif command == "finish" and len(message) == 2:
            conn.send(replica.finish(message[1]))
        elif command == "audit" and len(message) == 3:
            return replica.audit(message[1], message[2])
        else:
            raise SimulationError(f"unknown worker command: {message!r:.80}")
