"""The server's distribution path as it was before the indexes were
the only implementation: the literal Algorithm 6 walk and the
test-every-client push scan.

Lifted verbatim from ``repro.core.closure.transitive_closure`` (its
``writer_index is None`` arm) and from
``repro.core.server_incomplete.IncompleteWorldServer._collect_push``
(its whole-window arm).  Neither consults
:class:`~repro.core.indexes.WriterIndex` or
:class:`~repro.core.indexes.ClientSpatialIndex`;
``tests/test_distribution_differential.py`` and ``tests/test_indexes.py``
hold the shipped server to these answers.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional, Sequence, Set, Tuple

from repro.core import engine as engine_module
from repro.core import server_incomplete as server_module
from repro.core.closure import QueueEntry, _is_span_value
from repro.core.messages import OrderedAction
from repro.core.server_incomplete import ClientRecord, IncompleteWorldServer
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


class FullScanServer(IncompleteWorldServer):
    """The push cycle that nominates nobody and tests everybody: every
    client is checked against every entry of its (scanned, validated]
    window."""

    def _push_candidates(self):
        return {}

    def _collect_push(
        self, record: ClientRecord, candidate_positions: Sequence[int]
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


def use_reference_distribution(monkeypatch, server_cls=FullScanServer) -> None:
    """Make every server a :class:`~repro.core.engine.SeveEngine`
    builds from here on a ``server_cls`` that distributes with the two
    scans above instead of the indexes."""

    def closure_by_scan(entries, candidate_index, client_id, *, writer_index, base_pos=0):
        return reference_transitive_closure(entries, candidate_index, client_id)

    monkeypatch.setattr(server_module, "transitive_closure", closure_by_scan)
    monkeypatch.setattr(engine_module, "IncompleteWorldServer", server_cls)
