"""The server's distribution path as it was before the indexes were
the only implementation: the literal Algorithm 6 walk and the
test-every-client push scan.

Lifted verbatim from ``repro.core.closure.transitive_closure`` (its
``writer_index is None`` arm) and from
``repro.core.server_incomplete.IncompleteWorldServer._push_cycle`` /
``_collect_push`` (the whole-window arm, before per-client pending
lists).  Neither consults :class:`~repro.core.indexes.WriterIndex`,
:class:`~repro.core.indexes.ClientSpatialIndex` or a
``ClientRecord.pending`` list;
``tests/test_distribution_differential.py``,
``tests/test_push_pending.py`` and ``tests/test_indexes.py`` hold the
shipped server to these answers.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional, Sequence, Set, Tuple

from repro.core import engine as engine_module
from repro.core import server_incomplete as server_module
from repro.core import sharded as sharded_module
from repro.core.closure import QueueEntry, _is_span_value
from repro.core.messages import OrderedAction
from repro.core.server_incomplete import ClientRecord, IncompleteWorldServer
from repro.core.sharded import ShardServer
from repro.errors import ProtocolError
from repro.types import ClientId, ObjectId


def reference_transitive_closure(
    entries: Sequence[QueueEntry],
    candidate_index: int,
    client_id: ClientId,
) -> Tuple[Optional[List[int]], frozenset[ObjectId]]:
    """Algorithm 6 by scanning every earlier queue entry."""
    candidate = entries[candidate_index]
    if candidate.valid is False:
        raise ProtocolError(f"cannot build closure for dropped {candidate.pos}")
    if client_id in candidate.sent:
        raise ProtocolError(
            f"closure candidate pos {candidate.pos} already sent to {client_id}"
        )
    if _is_span_value(candidate, client_id) and candidate.span_result is None:
        return None, frozenset()  # result not yet known: defer
    accumulated: Set[ObjectId] = set(candidate.action.reads)
    chain: List[int] = [candidate_index]
    # Iterate via reversed() rather than indexing so a deque-backed
    # queue costs O(1) per entry.
    descending = islice(reversed(entries), len(entries) - candidate_index, None)
    for j, entry in zip(range(candidate_index - 1, -1, -1), descending):
        if entry.valid is False:
            continue
        action = entry.action
        if not (action.writes & accumulated):
            continue
        if client_id in entry.sent:
            accumulated -= action.writes
        elif _is_span_value(entry, client_id) and entry.span_result is None:
            for index in chain[1:]:
                entries[index].sent.discard(client_id)
            return None, frozenset()
        else:
            accumulated |= action.reads
            chain.append(j)
            entry.sent.add(client_id)
    candidate.sent.add(client_id)
    chain.reverse()
    return chain, frozenset(accumulated)


class FullScan:
    """The push cycle that nominates nobody and tests everybody: every
    registered client is checked against every entry of its (scanned,
    validated] window, every cycle.  It never reads or writes a
    record's ``pending``/``stale`` (the base class's position hook may
    still set ``stale``; nothing here looks).  Mixed in ahead of the
    server class it replaces the push path of."""

    def _push_candidates(self):
        raise AssertionError("the full scan nominates nobody")

    def _renominated(self, record, start):
        raise AssertionError("the full scan re-nominates nobody")

    def _push_cycle(self) -> None:
        self.stats.push_cycles += 1
        obs = self._obs
        if obs is not None:
            obs.on_push_scan(self.sim.now, 0)
        batches: List[Tuple[ClientId, List[OrderedAction]]] = []
        total_cost = 0.0
        for record in self.clients.values():
            if not self.network.is_registered(record.client_id):
                continue
            batch_entries, cost = self._collect_push(record)
            total_cost += cost
            if batch_entries:
                batches.append((record.client_id, batch_entries))
        if obs is not None:
            obs.on_push_build(
                self.sim.now,
                total_cost,
                len(batches),
                sum(len(batch_entries) for _, batch_entries in batches),
            )

        def send_all() -> None:
            self._distribute_batches(
                [
                    (client_id, batch_entries)
                    for client_id, batch_entries in batches
                    if client_id in self.clients
                ]
            )

        self.host.execute(total_cost, send_all)

    def _collect_push(
        self, record: ClientRecord
    ) -> Tuple[List[OrderedAction], float]:
        start = max(record.scanned_pos + 1, self._base_pos)
        client_position = self._client_position(record.client_id)
        batch_entries: List[OrderedAction] = []
        cost = 0.0
        entries = list(
            islice(
                self._entries,
                start - self._base_pos,
                self._validated_upto + 1 - self._base_pos,
            )
        )
        deferred_pos: Optional[int] = None
        for entry in entries:
            if entry.valid is False or record.client_id in entry.sent:
                continue
            if not self._wants(record, entry, client_position):
                continue
            closure_entries, closure_cost = self._closure_entries(
                record.client_id, entry
            )
            cost += closure_cost
            if closure_entries is None:
                deferred_pos = entry.pos
                break
            batch_entries.extend(closure_entries)
        if deferred_pos is not None:
            record.scanned_pos = max(record.scanned_pos, deferred_pos - 1)
        else:
            record.scanned_pos = max(record.scanned_pos, self._validated_upto)
        return batch_entries, cost


class FullScanServer(FullScan, IncompleteWorldServer):
    """The single-serializer server on the full scan."""


class FullScanShardServer(FullScan, ShardServer):
    """A shard server on the full scan."""


def use_reference_distribution(monkeypatch, server_cls=FullScanServer) -> None:
    """Make every server a :class:`~repro.core.engine.SeveEngine` builds
    from here on a ``server_cls`` — and every shard server of a sharded
    engine a :class:`FullScanShardServer` — that distributes with the
    two scans above instead of the indexes and the pending lists."""

    def closure_by_scan(entries, candidate_index, client_id, *, writer_index, base_pos=0):
        return reference_transitive_closure(entries, candidate_index, client_id)

    monkeypatch.setattr(server_module, "transitive_closure", closure_by_scan)
    monkeypatch.setattr(engine_module, "IncompleteWorldServer", server_cls)
    monkeypatch.setattr(sharded_module, "ShardServer", FullScanShardServer)
