"""A read-order tripwire: every stable evaluation reads only its past.

Theorem 1 is checked at the end of a run, on final values.  The
guarantee rests on something narrower: a client evaluates the stream
entry at position p against the state after p − 1.  A late closure
entry (one the server sends below the client's high-water mark) is
applied after newer entries, so shipping its code could let it read
their writes.  This test stamps each object of every client's ζ_CS
with the stream position of its last write (a blind-write seed stamps
-1) and, on a dense ``crowd_k1``-shaped run, requires

* no code entry at p to read a stamp above p;
* no seed to overwrite a stamp above its batch's ``last_installed``
  (the seed carries committed values, which no newer stream write the
  client holds may be under);
* late code entries and value entries to both occur, so the first two
  checks are not vacuous.
"""

from __future__ import annotations

from collections import Counter

from repro.core.action import BlindWrite
from repro.core.client import ProtocolClient
from repro.harness.config import SimulationSettings
from repro.harness.runner import run_simulation

#: The benchmark's ``crowd_k1`` shape on one of its sub-seeds.
CROWD = SimulationSettings(num_clients=128, num_walls=20_000, moves_per_client=8, seed=7000)


def test_no_stable_evaluation_reads_a_later_write(monkeypatch):
    stamps: dict = {}  # client -> object -> stream position of its last write
    newest: Counter = Counter()  # client -> highest position applied + 1
    seeds: dict = {}  # id of a seed blind write -> its batch's last_installed
    seen = Counter()
    on_batch, process = ProtocolClient._on_batch, ProtocolClient._process_entry

    def recording_batch(client, src, batch):
        for entry in batch.entries:
            if entry.pos < 0:
                seeds[id(entry.action)] = batch.last_installed
        on_batch(client, src, batch)

    def checked_process(client, entry):
        mine = stamps.setdefault(client.client_id, {})
        action, pos = entry.action, entry.pos
        if pos < 0:
            floor = seeds.pop(id(action))
            seen["seed overwrites"] += sum(
                mine.get(oid, -1) > floor for oid in action.writes
            )
            mine.update(dict.fromkeys(action.writes, -1))
        else:
            late = pos < newest[client.client_id] - 1
            if isinstance(action, BlindWrite):
                seen["late values"] += 1
            else:
                seen["late code"] += late
                seen["future reads"] += sum(
                    mine.get(oid, -1) > pos for oid in action.reads
                )
            mine.update(dict.fromkeys(action.writes, pos))
            newest[client.client_id] = max(newest[client.client_id], pos + 1)
        process(client, entry)

    monkeypatch.setattr(ProtocolClient, "_on_batch", recording_batch)
    monkeypatch.setattr(ProtocolClient, "_process_entry", checked_process)
    result = run_simulation("seve", CROWD)

    assert result.consistency.consistent
    assert seen["future reads"] == 0
    assert seen["seed overwrites"] == 0
    assert seen["late code"] > 0 and seen["late values"] > 0
