"""Transitive closure of conflicting actions — Algorithm 6 of the paper.

Given a candidate action about to be sent to client C, the server must
also send every uncommitted action that (transitively) affects it, plus
a blind write seeding the values the chain reads from the committed
state.  The walk runs backwards over the uncommitted queue suffix:

* an entry whose write set intersects the accumulated read set S joins
  the chain (and folds its read set into S) — unless C already received
  it, in which case its write set is *removed* from S, because C will
  have (or compute) those values itself;
* dropped (invalid) entries are no-ops and never join;
* the residual S is seeded by a blind write ``W(S, ζ_S(S))`` prepended
  to the reply.

This module owns the queue-entry record and the pure closure walk; the
Incomplete World server supplies the committed values and the wire
format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.action import Action, ActionResult
from repro.core.indexes import WriterIndex
from repro.errors import ProtocolError
from repro.types import ClientId, ObjectId, TimeMs


@dataclass
class QueueEntry:
    """One uncommitted action in the server's global queue."""

    pos: int
    action: Action
    arrived_at: TimeMs
    #: Clients this action has been sent to (Algorithm 5's sent(a)).
    sent: Set[ClientId] = field(default_factory=set)
    #: Information Bound verdict: None = pending, False = dropped.
    valid: Optional[bool] = None
    #: Validation rounds this entry has been deferred for (the
    #: Information Bound "delay" policy).
    deferrals: int = 0
    #: Stable result reported by the originator's completion message.
    completion: Optional[ActionResult] = None
    #: Clients that reported a completion (fault-tolerant mode).
    reporters: Set[ClientId] = field(default_factory=set)
    #: Sharded deployments: this entry is a spliced *spanning* action
    #: (its influence disc crosses shard borders; see repro.core.sharded).
    span: bool = False
    #: Whether this shard owns the spanning action (received the
    #: original submission; its originator is attached here).
    span_owner: bool = False
    #: Global sequence number assigned by the sequencer shard (-1 for
    #: ordinary local entries).  Splices land in gsn order on every
    #: involved shard, which embeds all observed orders into one global
    #: serializable order.
    gsn: int = -1
    #: The shard indices this spanning action was spliced into (empty
    #: for local entries).  The owner uses it to broadcast the result.
    span_involved: Tuple[int, ...] = ()
    #: Committed result of the spanning action, once known (set from the
    #: originator's completion on the owner, from SpanResult on peers).
    #: Until it arrives, non-originators cannot be sent this entry —
    #: they receive its *values*, not its code.
    span_result: Optional[ActionResult] = None
    #: Owning shard's index (set on spliced peers), so survivors can
    #: abort span entries orphaned by the owner shard crashing before
    #: it relayed a result (docs/control_plane.md).
    span_owner_shard: int = -1

    @property
    def committed_ready(self) -> bool:
        """Whether this entry can be installed (or skipped) once all its
        predecessors are: dropped entries need no completion."""
        return self.valid is False or self.completion is not None

    def record_completion(self, result: ActionResult, reporter: ClientId) -> None:
        """Store a completion, cross-checking duplicate reports.

        In the fault-tolerant mode several clients report the stable
        result of the same action; determinism (the Action contract)
        requires them to agree, and a disagreement means a protocol bug,
        so it raises rather than picking a winner.
        """
        if self.completion is not None and self.completion != result:
            raise ProtocolError(
                f"conflicting completions for {self.action.action_id} at "
                f"pos {self.pos}: {self.completion} vs {result} "
                f"(reporters {sorted(self.reporters)} vs {reporter})"
            )
        self.completion = result
        self.reporters.add(reporter)


def _is_span_value(entry: QueueEntry, client_id: ClientId) -> bool:
    """Whether ``entry`` reaches ``client_id`` as a *value* entry.

    A spliced spanning action is evaluated only by its originator (on
    the owner shard); every other client receives its committed result
    as a positioned blind write.  A value entry cannot be sent before
    the result is known; once known it walks like a normal entry — its
    reads still fold into the seed, because the result carries only the
    attributes the action actually wrote, and the underlying objects
    must reach the client complete (via the blind-write seed) before
    the partial result values land on top.
    """
    return entry.span and entry.action.client_id != client_id


def transitive_closure(
    entries: Sequence[QueueEntry],
    candidate_index: int,
    client_id: ClientId,
    *,
    writer_index: WriterIndex,
    base_pos: int = 0,
) -> Tuple[Optional[List[int]], frozenset[ObjectId]]:
    """Algorithm 6 for ``entries[candidate_index]`` and client C.

    ``entries`` is the live (uncommitted) queue suffix, oldest first.
    Returns ``(chain_indices, seed_set)`` where ``chain_indices`` are
    the indices (ascending, ending with ``candidate_index``) of the
    actions to send, and ``seed_set`` is the S whose committed values a
    blind write must carry.  Marks every returned entry as sent to C
    (including the candidate), mirroring the in-place ``sent(a)``
    updates of the paper's pseudocode.

    Spanning actions (sharded deployments) change the walk in one way:
    an entry that reaches C as a value entry (see :func:`_is_span_value`)
    whose committed result is not known yet defers the *whole* closure —
    the walk unwinds its sent marks and returns ``(None, ∅)`` so the
    server retries later.  Partial delivery is not an option, because
    skipping the span entry would let C evaluate younger chain members
    against pre-span values.  Once the result is known the value entry
    walks exactly like a normal entry (reads fold into the seed): the
    result blind-write carries only the attributes actually written, so
    the objects underneath must still reach C complete via the seed.

    ``writer_index`` is the server's
    :class:`~repro.core.indexes.WriterIndex` over ``entries`` and
    ``base_pos`` the queue position of ``entries[0]``: the walk jumps
    between the uncommitted writers of the accumulated read set, which
    visits the same entries, in the same descending order, as scanning
    every earlier entry would (``tests/reference`` keeps that scan as
    the oracle).
    """
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
    cursor = base_pos + candidate_index
    while accumulated:
        best = writer_index.latest_writer_before(accumulated, cursor)
        if best < base_pos:
            break  # no uncommitted writer of S below the cursor
        cursor = best
        entry = entries[best - base_pos]
        if entry.valid is False:
            continue  # dropped entries are no-ops, never join
        action = entry.action
        if not (action.writes & accumulated):
            continue  # writer of an oid meanwhile removed from S
        if client_id in entry.sent:
            accumulated -= action.writes
        elif _is_span_value(entry, client_id) and entry.span_result is None:
            for index in chain[1:]:
                entries[index].sent.discard(client_id)
            return None, frozenset()
        else:
            accumulated |= action.reads
            chain.append(best - base_pos)
            entry.sent.add(client_id)
    candidate.sent.add(client_id)
    chain.reverse()
    return chain, frozenset(accumulated)


class KnownValuesTracker:
    """Per-client cache of which committed object versions a client holds.

    Algorithm 6 as written re-seeds the full residual read set on every
    reply; that is correct but would make SEVE's downlink dominated by
    redundant blind-write bytes and break the paper's Figure 9 claim
    (SEVE traffic ≈ Central).  The paper's Section III-C memory note
    (server informs clients of the last installed action; clients GC)
    implies the server tracks delivery state per client; we make that
    explicit: the server remembers, per client and object, the commit
    position of the object value the client last received (via a blind
    write or by applying a sent action that later committed), and blind
    writes only carry objects the client does not already hold at the
    current committed version.
    """

    _MISSING = -2  # distinct from -1, the "initial world state" position

    def __init__(self) -> None:
        self._known: Dict[ClientId, Dict[ObjectId, int]] = {}
        #: Commit position of the last committed writer of each object
        #: (-1 for objects untouched since the initial state).
        self._last_writer: Dict[ObjectId, int] = {}

    def forget_client(self, client_id: ClientId) -> None:
        """Drop all state for a departed client."""
        self._known.pop(client_id, None)

    def needs(self, client_id: ClientId, oid: ObjectId) -> bool:
        """Whether a blind write to ``client_id`` must include ``oid``."""
        current = self._last_writer.get(oid, -1)
        held = self._known.get(client_id, {}).get(oid, self._MISSING)
        return held != current

    def filter_seed(
        self, client_id: ClientId, seed: frozenset[ObjectId]
    ) -> frozenset[ObjectId]:
        """The subset of ``seed`` the blind write must actually carry."""
        return frozenset(oid for oid in seed if self.needs(client_id, oid))

    def record_blind_write(self, client_id: ClientId, oids: frozenset[ObjectId]) -> None:
        """The client was just sent the current committed values of
        ``oids``."""
        holdings = self._known.setdefault(client_id, {})
        for oid in oids:
            holdings[oid] = self._last_writer.get(oid, -1)

    def record_commit(
        self,
        pos: int,
        written: frozenset[ObjectId],
        recipients: Set[ClientId],
    ) -> None:
        """An action at queue position ``pos`` committed, writing
        ``written``; every client it was sent to now holds those values
        (clients apply every action they receive, in order)."""
        for oid in written:
            self._last_writer[oid] = pos
        for client_id in recipients:
            holdings = self._known.setdefault(client_id, {})
            for oid in written:
                holdings[oid] = pos
