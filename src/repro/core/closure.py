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

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.action import Action, ActionResult, BlindWrite
from repro.core.indexes import WriterIndex
from repro.core.messages import OrderedAction
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
    #: Sharded deployments: the global sequence number of a spliced
    #: *spanning* action (its influence disc crosses shard borders; see
    #: repro.core.spans), -1 for an ordinary local entry.  Splices land
    #: in gsn order on every involved shard, which embeds all observed
    #: orders into one global serializable order.
    gsn: int = -1
    #: The shard indices this spanning action was spliced into (empty
    #: for local entries).  The owner uses it to broadcast the result.
    span_involved: Tuple[int, ...] = ()
    #: Committed result of the spanning action, once known (set from the
    #: first screened completion on the owner, from SpanResult on peers).
    #: Until it arrives a value entry (``span_value``) cannot be sent.
    span_result: Optional[ActionResult] = None
    #: A span's verdict, taken once at splice: this shard's clients get
    #: its committed result, not its code.  The owner's clients get the
    #: code: on the owner's stream a span's inputs are exactly those its
    #: originator read.  So do a peer's clients when the peer's verdict at
    #: splice (:class:`~repro.core.spans.SpanPipeline`) holds.  A value
    #: entry cannot be sent before the result is known; once known it
    #: walks like a normal entry (its reads still fold into the seed:
    #: the result carries only the attributes the action wrote).
    span_value: bool = False
    #: The spanning action's owner shard, where its originator is
    #: attached (-1 for a local entry).  Survivors abort the span
    #: entries of an owner that crashed before it relayed a result
    #: (docs/control_plane.md).
    span_owner_shard: int = -1
    #: The one wire entry every client gets for this entry unless it is
    #: late for that client (its code, or a span value entry's result),
    #: built on first send.
    wired: Optional[OrderedAction] = None

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


def ships_as_value(entry: QueueEntry, client_id: ClientId, high_water: int) -> bool:
    """Whether a late ``entry`` (below ``client_id``'s high-water mark
    and not yet sent to it) reaches the client as its committed value:
    a local entry, not the client's own, whose completion is known.

    The client already applied newer entries, so the code could read
    their writes; the value cannot.  No entry the client holds above
    ``entry`` writes what ``entry`` wrote (every action reads what it
    writes, so such a holder would have pulled ``entry`` when it was
    sent), so the value never lands on a newer write.
    """
    late = entry.pos < high_water and entry.action.client_id != client_id
    return late and entry.gsn < 0 and entry.completion is not None


def value_action(entry: QueueEntry, result: ActionResult) -> BlindWrite:
    """``entry``'s committed ``result`` as a positioned blind write (a
    *value entry*): the attributes the action wrote, merged over the
    objects underneath."""
    action_id = entry.action.action_id
    return BlindWrite(action_id, result.values(), origin=action_id)


def _holds_newer_write(entries, entry, client_id, high_water, chain, writers, base) -> bool:
    """Whether the client holds a write of RS(``entry``) newer than
    ``entry``: an entry at a position in ``(entry.pos, high_water]``,
    sent to it and not a member of this ``chain`` (indices from
    ``base``), found through the :class:`WriterIndex` ``writers``."""
    members = {base + index for index in chain}
    for oid in entry.action.reads:  # lint: allow(set-iteration)
        positions = writers.live_positions(oid)
        for pos in positions[bisect_right(positions, entry.pos):]:
            if pos > high_water:
                break
            if client_id in entries[pos - base].sent and pos not in members:
                return True
    return False


def _check_candidate(candidate: QueueEntry, client_id: ClientId) -> None:
    """A closure is built only for an entry that is not dropped and not
    yet sent to the client."""
    if candidate.valid is False:
        raise ProtocolError(f"cannot build closure for dropped {candidate.pos}")
    if client_id in candidate.sent:
        raise ProtocolError(f"closure candidate pos {candidate.pos} already sent to {client_id}")


def _walk_writers(entries, accumulated, cursor, client_id, writer_index, base_pos, held) -> Optional[int]:
    """Walk down from queue position ``cursor`` through the uncommitted
    writers of the set ``accumulated`` (S), found through the
    :class:`WriterIndex` ``writer_index``.  A dropped writer (a no-op)
    and one writing only what left S are passed over; one the client
    holds (any, when ``client_id`` is None) takes its writes out of S
    and is appended to ``held``.  Returns the index of the first writer
    the client does not hold — the next chain member — or None once no
    uncommitted writer of S is left below the cursor."""
    while accumulated:
        best = writer_index.latest_writer_before(accumulated, cursor)
        if best < base_pos:
            return None
        cursor = best
        writer = entries[best - base_pos]
        if writer.valid is False or not (writer.action.writes & accumulated):
            continue
        if client_id is not None and client_id not in writer.sent:
            return best - base_pos
        accumulated -= writer.action.writes
        held.append(writer)
    return None


def transitive_closure(
    entries: Sequence[QueueEntry], candidate_index: int, client_id: ClientId, *,
    writer_index: WriterIndex, base_pos: int = 0, high_water: int = -1,
) -> Tuple[Optional[List[int]], frozenset[ObjectId]]:
    """Algorithm 6 for ``entries[candidate_index]`` and client C.

    ``entries`` is the live (uncommitted) queue suffix, oldest first.
    Returns ``(chain_indices, seed_set)`` where ``chain_indices`` are
    the indices (ascending, ending with ``candidate_index``) of the
    actions to send, and ``seed_set`` is the S whose committed values a
    blind write must carry.  Marks every returned entry as sent to C
    (including the candidate), mirroring the in-place ``sent(a)``
    updates of the paper's pseudocode.

    A *late* entry — one below ``high_water``, the highest position C
    holds — is applied by C after newer entries, so its code could read
    their writes.  It ships one of three ways:

    1. as its committed value (:func:`ships_as_value`); its writes, not
       its reads, fold into S, so the objects underneath still reach C
       complete before the partial values merge;
    2. as code, when C holds no write of its read set newer than it
       (:func:`_holds_newer_write`): C's copy of that set is then the
       state before it;
    3. otherwise, and for every late spanning action, not at all: the
       walk unwinds its sent marks and returns ``(None, ∅)`` so the
       server retries later — typically once the entry's completion
       arrives and rule 1 applies.

    A span value entry (``QueueEntry.span_value``) whose committed
    result is not known yet defers the closure the same way.  Partial
    delivery is not an option: skipping an entry would let C evaluate
    younger chain members against older values.

    ``writer_index`` is the server's
    :class:`~repro.core.indexes.WriterIndex` over ``entries`` and
    ``base_pos`` the queue position of ``entries[0]``: the walk jumps
    between the uncommitted writers of the accumulated read set, which
    visits the same entries, in the same descending order, as scanning
    every earlier entry would (``tests/reference`` keeps that scan as
    the oracle).
    """
    _check_candidate(entries[candidate_index], client_id)
    accumulated: Set[ObjectId] = set()
    chain: List[int] = []
    index: Optional[int] = candidate_index
    while index is not None:
        entry = entries[index]
        action = entry.action
        if ships_as_value(entry, client_id, high_water):
            accumulated |= action.writes
        elif (entry.span_value and entry.span_result is None) or (
            entry.pos < high_water
            and (entry.gsn >= 0 or _holds_newer_write(
                entries, entry, client_id, high_water, chain, writer_index, base_pos
            ))
        ):
            for member in chain:
                entries[member].sent.discard(client_id)
            return None, frozenset()
        else:
            accumulated |= action.reads
        chain.append(index)
        entry.sent.add(client_id)
        index = _walk_writers(entries, accumulated, entry.pos, client_id, writer_index, base_pos, [])
    chain.reverse()
    return chain, frozenset(accumulated)


#: An all-sent walk: the writers passed, in descending order, and the seed.
Walk = Tuple[List[QueueEntry], frozenset]


def all_sent_walk(entries, candidate_index: int, *, writer_index: WriterIndex, base_pos: int = 0) -> Walk:
    """The *all-sent walk* of ``entries[candidate_index]``: the writers
    :func:`transitive_closure` passes below that entry for a client that
    holds every one of them, in descending order, and the seed S left at
    the end.  The candidate must be code on the walk's first step (not
    late for the client, not a span value entry), so its reads start S.
    Nothing here depends on the client: within one synchronous push
    cycle the writers below an entry, their verdicts and the commit
    frontier stay fixed, so a walk made once serves every client
    (:func:`held_closure`)."""
    candidate = entries[candidate_index]
    accumulated, held = set(candidate.action.reads), []
    _walk_writers(entries, accumulated, candidate.pos, None, writer_index, base_pos, held)
    return held, frozenset(accumulated)


def held_closure(walk: Walk, entries: Sequence[QueueEntry], candidate_index: int, client_id: ClientId):
    """What :func:`transitive_closure` returns for ``entries[candidate_index]``
    and a client holding every writer of its all-sent ``walk``: the
    candidate alone, marked sent, and the walk's seed.  None when the
    client lacks one of them (its chain is longer: walk it in full)."""
    held, seed = walk
    for writer in held:
        if client_id not in writer.sent:
            return None
    candidate = entries[candidate_index]
    _check_candidate(candidate, client_id)
    candidate.sent.add(client_id)
    return [candidate_index], seed


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
        return bool(self.filter_seed(client_id, (oid,)))

    def filter_seed(
        self, client_id: ClientId, seed: frozenset[ObjectId]
    ) -> frozenset[ObjectId]:
        """The subset of ``seed`` the blind write must actually carry:
        the objects whose committed version the client does not hold."""
        holdings, current = self._known.get(client_id, {}), self._last_writer
        return frozenset(oid for oid in seed if holdings.get(oid, self._MISSING) != current.get(oid, -1))

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
