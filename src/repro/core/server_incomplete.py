"""The Incomplete World server — Algorithm 5 of the paper, plus the
First Bound push schedule (Section III-D) and Information Bound
validation (Section III-E) that together make up the full SEVE server.

Responsibilities (and *only* these — the server runs no game logic):

1. **Timestamp & serialize** every submitted action into the global
   queue (positions are the virtual timestamps).
2. **Distribute** to each client the actions that can affect it:
   reactively (Algorithm 5: reply to each submission with the
   transitive closure of Algorithm 6) or proactively (First Bound
   Model: push every ω·RTT everything passing the Equation (1)
   predicate, closed transitively).
3. **Validate** new actions each tick against the Information Bound
   threshold, dropping chain-breakers (Algorithm 7) and notifying the
   originator.
4. **Commit**: buffer completion messages and install each action's
   stable result into the authoritative state ζ_S strictly in queue
   order (ζ_S(i) requires ζ_S(i−1)), garbage-collecting the queue.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.core.action import Action, ActionId, BlindWrite
from repro.core.chassis import ServerShell, ServerStats
from repro.core.closure import (
    KnownValuesTracker, QueueEntry, all_sent_walk, held_closure, ships_as_value, transitive_closure,
    value_action,
)
from repro.core.first_bound import FirstBoundPredicate
from repro.core.indexes import ClientSpatialIndex, WriterIndex
from repro.core.info_bound import InformationBound
from repro.core.interest import is_consequential
from repro.core.messages import (
    AbortNotice,
    ActionBatch,
    CommitNotice,
    Completion,
    OrderedAction,
    SubmitAction,
)
from repro.core.server_basic import TIMESTAMP_MS
from repro.errors import ConfigurationError, ProtocolError
from repro.net.host import Host
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.state.versioned import VersionedStore
from repro.types import SERVER_ID, ClientId, ObjectId, TimeMs
from repro.world.geometry import Vec2


# Simulated CPU costs of the server's bookkeeping, in ms, calibrated to
# the paper's measurements (docs/calibration.md): 0.04 ms per
# transitive-closure computation, with timestamping (``TIMESTAMP_MS``)
# and per-entry push overhead sized so a single server saturates around
# the paper's empirically determined limit of ~3500 clients.
CLOSURE_MS = 0.04
PUSH_ENTRY_MS = 0.02
VALIDATE_MS = 0.01


def _no_avatar(client_id: ClientId) -> None:
    """The ``avatar_of`` of a server that was given none."""
    return None


#: The anchor of a client without a committed position.  The index
#: nominates such a client for every entry, and any position it is
#: later placed at is further than ``reach`` from here.
UNPLACED = Vec2(float("inf"), float("inf"))


@dataclass
class ClientRecord:
    """Per-client distribution state."""

    client_id: ClientId
    #: r_C — the maximum influence radius of the client's actions.
    radius: float
    #: Interest classes (Section IV-A); ``None`` = everything.
    interests: Optional[frozenset[str]] = None
    #: Queue position up to which push candidates have been considered.
    scanned_pos: int = -1
    #: Highest queue position ever delivered to this client.  An entry a
    #: closure pulls below this mark is *late*: the client applies it
    #: after newer entries, so it ships as its committed value, as code
    #: when no newer write of its reads reached the client, or defers
    #: (:func:`~repro.core.closure.transitive_closure`).
    high_water: int = -1
    #: Virtual time the client's committed position last changed
    #: (t_C for the Section IV-B velocity-culled predicate).
    position_time: TimeMs = 0.0
    #: Ascending queue positions owed to this client.  Push mode: those
    #: nominated and not yet pushed, a superset of what ``_wants``
    #: admits in its window ``(scanned_pos, nominated]`` at any
    #: committed position within ``reach`` of ``anchor``
    #: (docs/performance.md).  Reactive mode: its own submissions not
    #: yet answered, waiting behind the oldest one whose closure was
    #: deferred.  An entry that commits while its originator does not
    #: hold it teaches the originator the committed values and confirms
    #: the action (``_advance_frontier``).
    pending: List[int] = field(default_factory=list)
    #: The committed position the open window's nominations were made
    #: from (:data:`UNPLACED` for a position-less client).  ``None``
    #: once the client has drifted more than ``reach`` from it under an
    #: open window: ``pending`` no longer bounds what it wants, nothing
    #: is appended to it, and the next walk re-nominates the window.
    #: (A ``Vec2`` is never false: ``record.anchor`` reads "has one",
    #: and ``position or UNPLACED`` places a position-less client.)
    anchor: Optional[Vec2] = None


@dataclass
class IncompleteServerStats(ServerStats):
    """Server-side counters read by the harness (its front door's
    included)."""

    actions_serialized: int = 0
    actions_dropped: int = 0
    actions_committed: int = 0
    closures_computed: int = 0
    entries_distributed: int = 0
    blind_writes_sent: int = 0
    batches_sent: int = 0
    push_cycles: int = 0
    #: Entries aborted because every client holding them failed.
    orphans_aborted: int = 0
    #: Closures deferred: a late entry that could ship neither as its
    #: value nor as code, or a span value whose result is not known.
    closures_deferred: int = 0
    #: Wire entries of the closure replies built (blind writes included)
    #: and the simulated CPU charged for them: the closures and a
    #: per-entry cost, which a push cycle's batch build pays.
    entries_built: int = 0
    build_cpu_ms: float = 0.0
    #: Validation ticks that had new entries, and their simulated CPU.
    validations: int = 0
    validate_cpu_ms: float = 0.0


class IncompleteWorldServer(ServerShell):
    """SEVE's server: Algorithms 5 + 6, First Bound, Information Bound.

    Modes
    -----
    * ``predicate=None`` — reactive Incomplete World Model: each
      submission is answered with its Algorithm 6 closure.
    * ``predicate=FirstBoundPredicate(...)`` — First Bound Model: the
      server pushes every ``predicate.push_interval_ms``.
    * ``info_bound=InformationBound(...)`` — adds Algorithm 7 dropping
      (requires push mode: validation is tick-aligned, and reactive
      replies would race the verdicts).

    Distribution indexes
    --------------------
    Two inverted indexes (see :mod:`repro.core.indexes` and
    docs/performance.md) make the distribution path output-sensitive in
    *wall-clock* terms: a spatial index over committed avatar positions
    turns the push cycle's O(clients x actions) scan into one candidate
    query per action, whose answer waits on per-client pending lists,
    and a per-object writer index lets Algorithms 6 and 7 jump between
    actual writers instead of scanning the queue.  Both are
    observationally equivalent to the scans they replace — batches,
    stats, and the simulated CPU cost accounting are
    byte-identical to the scans kept as oracles in
    ``tests/reference/distribution_reference.py``.  A server built
    without ``avatar_of`` knows no client's position, so the spatial
    index nominates every client for every action.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host: Host,
        state: VersionedStore,
        *,
        predicate: Optional[FirstBoundPredicate] = None,
        info_bound: Optional[InformationBound] = None,
        tick_ms: TimeMs = 100.0,
        avatar_of: Optional[Callable[[ClientId], ObjectId]] = None,
        server_id: ClientId = SERVER_ID,
        detector=None,
    ) -> None:
        if info_bound is not None and predicate is None:
            raise ConfigurationError(
                "the Information Bound Model requires First Bound pushes "
                "(tick-aligned validation cannot serve reactive replies)"
            )
        if tick_ms <= 0:
            raise ConfigurationError(f"tick must be positive, got {tick_ms}")
        self.state = state
        self.predicate = predicate
        self.info_bound = info_bound
        self.tick_ms = tick_ms
        #: Client -> avatar object id.  Without one every client is
        #: position-less: a push candidate for every action.
        self.avatar_of = avatar_of or _no_avatar
        self.known = KnownValuesTracker()
        #: Optional hook fired after each commit with
        #: ``(pos, client_id, values)`` — a shard's recovery log attaches here.
        self.on_commit: Optional[
            Callable[[int, ClientId, Dict[ObjectId, dict]], None]
        ] = None
        self._entries: Deque[QueueEntry] = deque()
        self._next_pos = 0
        self._base_pos = 0  # pos of _entries[0]; == _next_pos when empty
        self._validated_upto = -1
        #: Highest queue position whose push candidates were nominated.
        self._nominated_upto = -1
        self._blind_seq = 0
        #: Whether a reactive reply waits behind a deferral: only then
        #: does a completion walk the clients' ``pending`` lists.
        self._replies_owed = False
        self._writer_index = WriterIndex()
        self._client_index = ClientSpatialIndex()
        self._avatar_owner: Dict[ObjectId, ClientId] = {}
        # The shell keeps the attached clients (records: ClientRecord).
        # Shard servers get their own negative host ids.
        super().__init__(
            sim, network, host, IncompleteServerStats(),
            detector=detector, server_id=server_id,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach_client(
        self,
        client_id: ClientId,
        *,
        radius: float = 0.0,
        interests: Optional[frozenset[str]] = None,
    ) -> None:
        """Register a client for distribution."""
        super().attach_client(client_id, radius=radius, interests=interests)
        avatar_oid = self.avatar_of(client_id)
        if avatar_oid is not None:
            self._avatar_owner[avatar_oid] = client_id
        self._client_index.note_radius(radius)
        position = self._client_position(client_id)
        self._client_index.update(client_id, position)
        self.clients[client_id].anchor = position or UNPLACED

    def _client_record(
        self, client_id: ClientId, radius: float, interests: Optional[frozenset[str]]
    ) -> ClientRecord:
        return ClientRecord(
            client_id,
            radius=radius,
            interests=interests,
            scanned_pos=self._next_pos - 1,
        )

    def detach_client(self, client_id: ClientId) -> None:
        """Unregister a failed/departed client."""
        super().detach_client(client_id)
        self.known.forget_client(client_id)
        # A departed client holds nothing: scrub it from sent(a) so a
        # later re-attach rebuilds full closures (entries "sent" into a
        # crash window were dropped on the floor, and treating them as
        # delivered would seed the rejoiner with stale values).  The
        # orphan-abort holder sets are unchanged by this: a holder
        # absent from ``clients`` and a scrubbed holder decide alike.
        for entry in self._entries:
            entry.sent.discard(client_id)
        self._client_index.remove(client_id)
        avatar_oid = self.avatar_of(client_id)
        if avatar_oid is not None and self._avatar_owner.get(avatar_oid) == client_id:
            del self._avatar_owner[avatar_oid]

    def start(self, *, stop_at: Optional[TimeMs] = None) -> None:
        """Install the periodic processes (validation tick, push cycle,
        then the shell's liveness sweep)."""
        if self.info_bound is not None:
            self._stoppers.append(
                self.sim.call_every(self.tick_ms, self._validation_tick, stop_at=stop_at)
            )
        if self.predicate is not None:
            self._stoppers.append(
                self.sim.call_every(
                    self.predicate.push_interval_ms, self._push_cycle, stop_at=stop_at
                )
            )
        super().start(stop_at=stop_at)

    # ------------------------------------------------------------------
    # Admission (the shell's dispatcher hands messages in)
    # ------------------------------------------------------------------
    #: The shell's table plus completions (subclasses extend it).
    HANDLERS = {
        **ServerShell.HANDLERS,
        Completion: "_record_completion",
    }

    def _accept(self, src: ClientId, message: SubmitAction) -> None:
        """Charge a fresh submission's timestamping cost; :meth:`_admit`
        enqueues it."""
        action = message.action
        self._note_submission(src, action)
        cost = TIMESTAMP_MS
        if self.predicate is None:
            cost += CLOSURE_MS
        self.host.execute(cost, lambda: self._admit(src, action))

    def _admit(self, src: ClientId, action: Action) -> None:
        """Algorithm 5 step 3(a): timestamp and enqueue."""
        if src not in self.clients:
            # Detached between receipt and admission.
            self._release(src, action)
            return
        entry = self._enqueue(action, self.info_bound is None)
        if self.predicate is None:
            record = self.clients[src]
            record.pending.append(entry.pos)
            self._reply(record)

    def _enqueue(self, action: Action, valid: bool) -> QueueEntry:
        """Timestamp ``action`` at the next stream position.  A ``valid``
        entry skips Information Bound validation, and one contiguous
        with the validation frontier is distributable at once (else the
        next tick's frontier walk passes over the pre-set verdict)."""
        entry = QueueEntry(self._next_pos, action, self.sim.now, valid=valid or None)
        self._next_pos += 1
        self._entries.append(entry)
        self._writer_index.note_enqueued(entry.pos, action.writes)
        self.stats.actions_serialized += 1
        if valid and self._validated_upto == entry.pos - 1:
            self._validated_upto = entry.pos
        return entry

    # ------------------------------------------------------------------
    # Reactive replies (plain Incomplete World Model)
    # ------------------------------------------------------------------
    def _reply(self, record: ClientRecord) -> None:
        """Algorithm 5 step 3(b): answer the client's unanswered
        submissions (``record.pending``), oldest first, each with its
        closure.  A deferred closure stops the walk: it and every newer
        one wait for a later completion, as a push waits for a later
        cycle.  A submission that committed meanwhile needs no reply
        (the commit taught its originator)."""
        client_id = record.client_id
        if not self.network.is_registered(client_id):
            return  # connection dropped: a resync or eviction clears it
        base = self._base_pos
        pending = record.pending
        for at, pos in enumerate(pending):
            if pos < base:
                continue
            entry = self._entries[pos - base]
            if entry.valid is False or client_id in entry.sent:
                continue
            batch_entries, _ = self._closure_entries(client_id, entry)
            if batch_entries is None:
                record.pending = pending[at:]
                self._replies_owed = True
                return
            self._send_batch(client_id, batch_entries)
        record.pending = []

    def _closure_entries(
        self, client_id: ClientId, entry: QueueEntry
    ) -> Tuple[Optional[List[OrderedAction]], float]:
        """Compute Algorithm 6's reply A for ``entry`` -> ``client_id``.

        Returns the ordered wire entries (blind-write prefix included)
        and the simulated CPU cost of computing them, or ``(None,
        cost)`` when the closure is deferred
        (:func:`~repro.core.closure.transitive_closure`: a late entry
        that can ship neither as its value nor as code, or a span value
        whose result is not known yet).  A late entry ships as its value
        (:func:`~repro.core.closure.ships_as_value`); every other entry
        ships as the one :class:`OrderedAction` its queue entry keeps
        for every client: its code, or a span value entry's committed
        result (``QueueEntry.span_value``).

        Inside a push cycle an entry that is code on its first step (not
        late for the client, not a span value entry) is answered from
        the cycle's one walk of it (:func:`~repro.core.closure.held_closure`)
        when the client holds every writer that walk passed; every other
        closure walks in full.  Batch, marks, stats and cost are the same.
        """
        record, stats = self.clients[client_id], self.stats
        high_water = record.high_water
        entries, index, base = self._entries, entry.pos - self._base_pos, self._base_pos
        walks, writers, closure = self._walks, self._writer_index, None
        if walks is not None and entry.pos >= high_water and not entry.span_value:
            walk = walks.get(entry.pos)
            if walk is None:
                walk = walks[entry.pos] = all_sent_walk(entries, index, writer_index=writers, base_pos=base)
            closure = held_closure(walk, entries, index, client_id)
        chain, seed = closure or transitive_closure(
            entries, index, client_id, writer_index=writers, base_pos=base, high_water=high_water
        )
        cost = CLOSURE_MS
        stats.closures_computed += 1
        stats.build_cpu_ms += cost
        if chain is None:
            stats.closures_deferred += 1
            return None, cost
        record.high_water = max(high_water, entry.pos)
        batch_entries = self._seed(client_id, seed, self.state.values_of) if seed else []
        for chain_index in chain:
            chained = entries[chain_index]
            if chained.pos < high_water and ships_as_value(chained, client_id, high_water):
                wired = OrderedAction(chained.pos, value_action(chained, chained.completion))
            elif chained.wired is None:
                action = chained.action
                if chained.span_value:  # one committed result for every client
                    action = value_action(chained, chained.span_result)
                wired = chained.wired = OrderedAction(chained.pos, action)
            else:
                wired = chained.wired
            batch_entries.append(wired)
            cost += PUSH_ENTRY_MS
            stats.build_cpu_ms += PUSH_ENTRY_MS
        stats.entries_built += len(batch_entries)
        return batch_entries, cost

    def _seed(self, client_id: ClientId, oids: frozenset, values_of) -> List[OrderedAction]:
        """The blind write (a one-entry list; empty when none is needed)
        carrying ``values_of`` the objects of ``oids`` whose committed
        version ``client_id`` does not hold."""
        needed = self.known.filter_seed(client_id, oids)
        if not needed:
            return []
        blind = BlindWrite.from_server(self._blind_seq, values_of(needed))
        self._blind_seq += 1
        self.known.record_blind_write(client_id, needed)
        self.stats.blind_writes_sent += 1
        return [OrderedAction(-1, blind)]

    def _send_batch(
        self, client_id: ClientId, batch_entries: List[OrderedAction]
    ) -> None:
        if not batch_entries:
            return
        batch = ActionBatch(tuple(batch_entries), last_installed=self._base_pos - 1)
        self.send(client_id, batch)
        self.stats.batches_sent += 1
        self.stats.entries_distributed += len(batch_entries)

    # ------------------------------------------------------------------
    # Information Bound validation (Algorithm 7, every tick)
    # ------------------------------------------------------------------
    def _validation_tick(self) -> None:
        assert self.info_bound is not None
        first_new = self._validated_upto + 1 - self._base_pos
        if first_new >= len(self._entries):
            return
        new_count = len(self._entries) - first_new
        # Algorithm 7 indexes entries element-wise both ways; hand it a
        # list view of the deque (same QueueEntry objects, so the
        # in-place ``valid`` verdicts land in the queue).
        entries_view = list(self._entries)
        dropped_indices = self.info_bound.validate(
            entries_view,
            first_new,
            writer_index=self._writer_index,
            base_pos=self._base_pos,
        )
        # Advance the contiguous validation frontier; under the delay
        # policy a deferred entry (valid still None) stops it early.
        for entry in islice(entries_view, first_new, None):
            if entry.valid is None:
                break
            self._validated_upto = entry.pos
        cost = VALIDATE_MS * new_count
        self.stats.validations += 1
        self.stats.validate_cpu_ms += cost
        if self.sim.obs is not None:
            self.sim.obs.on_validate(
                self.sim.now, cost, new_count, len(dropped_indices)
            )

        notices = []
        for index in dropped_indices:
            entry = entries_view[index]
            self.stats.actions_dropped += 1
            notices.append((entry.action.client_id, AbortNotice(entry.action.action_id)))

        def notify() -> None:
            for client_id, notice in notices:
                if client_id in self.clients:
                    self.send(client_id, notice)

        self.host.execute(cost, notify)
        # Dropped entries may have been the only thing stalling the
        # commit frontier (they need no completion).
        self._advance_frontier()

    # ------------------------------------------------------------------
    # First Bound pushes (every omega * RTT)
    # ------------------------------------------------------------------
    #: The open push cycle's all-sent walks by entry position
    #: (:func:`~repro.core.closure.all_sent_walk`); None between cycles.
    _walks: Optional[Dict[int, tuple]] = None

    def _push_cycle(self) -> None:
        assert self.predicate is not None
        self.stats.push_cycles += 1
        obs = self.sim.obs
        self._push_candidates()
        if obs is not None:
            obs.on_push_scan(self.sim.now, sum(len(record.pending) for record in self.clients.values()))
        batches: List[Tuple[ClientId, List[OrderedAction]]] = []
        total_cost = 0.0
        self._walks = {}
        for record in self.clients.values():
            # A parked handler is a broken connection: building a batch
            # would mark entries sent (and known values held) that can
            # never arrive — poisoning every closure after a reconnect.
            # The reconnect resync re-attaches from scratch instead.
            if not self.network.is_registered(record.client_id):
                continue
            if not record.pending and record.anchor:
                # Nothing nominated, so nothing in the window is wanted.
                record.scanned_pos = max(record.scanned_pos, self._validated_upto)
                continue
            batch_entries, cost = self._collect_push(record)
            total_cost += cost
            if batch_entries:
                batches.append((record.client_id, batch_entries))
        self._walks = None
        if obs is not None:
            built = sum(len(batch_entries) for _, batch_entries in batches)
            obs.on_push_build(self.sim.now, total_cost, len(batches), built)

        def send_all() -> None:
            clients = self.clients
            self._distribute_batches([batch for batch in batches if batch[0] in clients])

        self.host.execute(total_cost, send_all)

    def _distribute_batches(
        self, batches: List[Tuple[ClientId, List[OrderedAction]]]
    ) -> None:
        """Deliver one push cycle's batches (hook: the hybrid relay
        server overrides this to bundle per relay group)."""
        for client_id, batch_entries in batches:
            self._send_batch(client_id, batch_entries)

    def _window(self, start: int, upto: int) -> Iterator[Tuple[int, QueueEntry]]:
        """The queued entries at positions ``start`` .. ``upto`` (none
        when the frontier has passed ``upto``); ``start >= _base_pos``."""
        first = start - self._base_pos
        return zip(
            range(start, upto + 1),
            islice(self._entries, first, max(first, upto + 1 - self._base_pos)),
        )

    def _push_candidates(self) -> None:
        """Nominate each newly validated entry, once, to the clients it
        *might* affect, by appending its queue position to their
        ``pending`` lists.

        One spatial query over committed avatar positions yields the
        candidate recipients at :meth:`FirstBoundPredicate.index_radius`
        (Equation (1)'s ``reach + r_A + max r_C`` around p̄_A, widened
        by the drift margin 2·``reach``); position-less actions,
        velocity-culled actions, and position-less clients
        conservatively stay candidates for everything.  Candidates are
        exact-filtered per client by :meth:`_wants` when the list is
        walked, so the result is observationally identical to testing
        every client against every entry — as long as a list stays a
        superset of what ``_wants`` admits, which only a client drifting
        further than ``reach`` from its anchor can break
        (:meth:`_refresh_indexed_positions` drops the anchor there, and
        a record without one is re-nominated, not appended to; its
        ``position_time`` matters to velocity-culled actions only, and
        those are on every list).
        """
        start = max(self._nominated_upto + 1, self._base_pos)
        upto = self._validated_upto
        if start > upto:
            return
        self._nominated_upto = upto
        index = self._client_index
        clients = self.clients
        assert self.predicate is not None
        index_radius = self.predicate.index_radius
        max_radius = index.max_client_radius
        for pos, entry in self._window(start, upto):
            if entry.valid is False:
                continue
            action = entry.action
            radius = index_radius(action, max_radius)
            if radius is None:
                targets = clients  # conservative broadcast: every client
            else:
                targets = index.candidates(action.position, radius)
                if action.client_id not in targets:
                    targets.append(action.client_id)  # own actions always come back
            for client_id in targets:
                record = clients.get(client_id)
                if record is not None and record.anchor and record.scanned_pos < pos:
                    record.pending.append(pos)

    def _renominated(self, record: ClientRecord, start: int) -> List[int]:
        """The ``pending`` list of a record without an anchor, rebuilt
        once: the positions from ``start`` on that asking the index again
        about every nominated entry, at the widened radius, would
        nominate for this client at its committed position now — which
        becomes its anchor."""
        client_id, index = record.client_id, self._client_index
        record.anchor = index.position_of(client_id) or UNPLACED
        radius_of, max_radius = self.predicate.index_radius, index.max_client_radius
        return [
            pos
            for pos, entry in self._window(start, self._nominated_upto)
            if (radius := radius_of(entry.action, max_radius)) is None
            or entry.action.client_id == client_id
            or index.is_candidate(client_id, entry.action.position, radius)
        ]

    def _collect_push(
        self, record: ClientRecord
    ) -> Tuple[List[OrderedAction], float]:
        """All validated actions in (scanned, validated] that this client
        needs — Equation (1) survivors, own actions, and their closures —
        among the positions nominated for it: ``record.pending``,
        rebuilt first (:meth:`_renominated`) if the record has no anchor.
        """
        base = self._base_pos
        start = max(record.scanned_pos + 1, base)
        client_id = record.client_id
        client_position = self._client_position(client_id)
        batch_entries: List[OrderedAction] = []
        cost = 0.0
        pending = record.pending if record.anchor else self._renominated(record, start)
        record.pending = []
        for at, pos in enumerate(pending):
            if pos < start:
                continue
            entry = self._entries[pos - base]
            if entry.valid is False or client_id in entry.sent:
                continue
            if not self._wants(record, entry, client_position):
                continue
            closure_entries, closure_cost = self._closure_entries(client_id, entry)
            cost += closure_cost
            if closure_entries is None:
                # Deferred: stop here so nothing newer overtakes this
                # candidate; it and everything after it wait for the
                # next push cycle.
                record.pending = pending[at:]
                record.scanned_pos = max(record.scanned_pos, pos - 1)
                return batch_entries, cost
            batch_entries.extend(closure_entries)
        # The window is empty now: the client is anchored where it stands.
        record.anchor = self._client_index.position_of(client_id) or UNPLACED
        record.scanned_pos = max(record.scanned_pos, self._validated_upto)
        return batch_entries, cost

    def _wants(
        self,
        record: ClientRecord,
        entry: QueueEntry,
        client_position: Optional[Vec2],
    ) -> bool:
        action = entry.action
        if action.client_id == record.client_id:
            return True  # own actions always come back (Algorithm 4 step 5)
        if not is_consequential(action.interest_class, record.interests):
            return False  # Section IV-A: inconsequential to this client
        assert self.predicate is not None
        return self.predicate.affects(
            action,
            client_position,
            record.radius,
            action_time=entry.arrived_at,
            client_position_time=record.position_time,
        )

    def _client_position(self, client_id: ClientId) -> Optional[Vec2]:
        """The client's committed position p̄_C (from ζ_S), if known."""
        avatar_oid = self.avatar_of(client_id)
        if avatar_oid is None or avatar_oid not in self.state:
            return None
        obj = self.state.get(avatar_oid)
        if "x" not in obj or "y" not in obj:
            return None
        return Vec2(float(obj["x"]), float(obj["y"]))

    # ------------------------------------------------------------------
    # Commit path (Algorithm 5 step 4)
    # ------------------------------------------------------------------
    def _record_completion(self, src: ClientId, message: Completion) -> None:
        if self.detector is not None and self._screen_completion(src, message):
            return
        if message.pos < self._base_pos:
            return  # already installed (duplicate from fault-tolerant mode)
        entry, breach = self._completed_entry(message)
        if breach:
            raise ProtocolError(f"{breach}; expected {message.action_id}")
        self._note_completion(entry, message)
        entry.record_completion(message.result, src)
        self._advance_frontier()

    def _completed_entry(self, message: Completion) -> Tuple[Optional[QueueEntry], str]:
        """The queued entry a completion at or above the frontier names,
        and what is wrong with the message ("" when nothing is)."""
        index = message.pos - self._base_pos
        if index >= len(self._entries):
            return None, f"completion for unknown pos {message.pos}"
        entry = self._entries[index]
        if entry.action.action_id != message.action_id:
            return entry, f"completion id mismatch at pos {message.pos} ({entry.action.action_id})"
        return entry, ""

    def _screen_completion(self, src: ClientId, message: Completion) -> bool:
        """Cheat-detection screen over a reported completion.

        ``True`` means *drop* (evidence, if any, is already flagged);
        honest paths fall through to the normal recording code.
        """
        from repro.core.detection import SILENT_DROP

        detector = self.detector
        if message.pos < self._base_pos:
            # Already committed.  A *conflicting* result from the
            # action's own originator for a committed slot is
            # equivocation (the first report may have committed the
            # entry synchronously before the second arrived); anything
            # else is the normal fault-tolerant duplicate.
            committed = detector.committed_result(message.pos)
            if committed is not None:
                result, originator = committed
                if message.result != result and src == originator:
                    detector.flag(
                        "equivocation", src, action=message.action_id,
                        detail=f"conflicting result for committed pos "
                        f"{message.pos}",
                    )
            return True
        entry, breach = self._completed_entry(message)
        if breach:
            detector.flag("breach", src, action=message.action_id, detail=breach)
            return True
        verdict = detector.screen_completion(
            src, entry.action, entry.completion, entry.reporters,
            message.result,
        )
        if verdict is None:
            return False
        if verdict != SILENT_DROP:
            detector.flag(
                verdict, src, action=message.action_id,
                detail=f"reported completion for pos {message.pos}",
            )
        return True

    def _advance_frontier(self) -> None:
        """Install ready entries in strict queue order; GC the queue;
        then retry the deferred reactive replies (a completion may be
        what they waited for)."""
        while self._entries and self._entries[0].committed_ready:
            entry = self._entries.popleft()
            self._base_pos = entry.pos + 1
            self._writer_index.note_dequeued(entry.action.writes, self._base_pos)
            self._note_resolved(entry)
            if entry.valid is False:
                continue
            assert entry.completion is not None
            if self.detector is not None:
                self.detector.remember_commit(
                    entry.pos, entry.completion, entry.action.client_id
                )
            values = entry.completion.values()
            self.state.merge(values, commit_index=entry.pos)
            self._refresh_indexed_positions(values)
            written = entry.completion.written_ids()
            self.known.record_commit(entry.pos, written, entry.sent)
            action_id = entry.action.action_id
            if action_id.client_id not in entry.sent:
                # An entry that commits while its originator does not
                # hold it (another holder's report overtook the push, or
                # its reply is still deferred) teaches the
                # originator the committed values and confirms the
                # action: its echo can never arrive.
                self._teach_commit(action_id.client_id, entry.pos, action_id, written)
            self.stats.actions_committed += 1
            self._note_position_change(entry)
            if self.on_commit is not None:
                self.on_commit(entry.pos, entry.action.client_id, values)
        if self._replies_owed:
            self._replies_owed = False
            for record in self.clients.values():
                if record.pending:
                    self._reply(record)

    def _teach_commit(
        self, client_id: ClientId, pos: int, action_id: ActionId, written: frozenset
    ) -> None:
        """Send ``client_id`` the committed values of what the entry at
        ``pos`` wrote that it does not hold, as a blind write; and, when
        it is the entry's own originator, confirm the submission with a
        CommitNotice, since its echo can never arrive (the entry left
        the queue) and the client would wait forever."""
        if client_id not in self.clients or not self.network.is_registered(client_id):
            return  # detached, or crashed: nobody to teach
        seed = self._seed(client_id, written, self.state.values_of_present)
        self._send_batch(client_id, seed)
        if action_id.client_id == client_id:
            self.send(client_id, CommitNotice(pos, action_id))

    def _refresh_indexed_positions(self, values: Dict[ObjectId, dict]) -> None:
        """Mirror a commit's avatar writes into the spatial client index
        so candidate queries always see exactly ζ_S's positions.

        A client whose window ``(scanned_pos, _nominated_upto]`` is
        empty is re-anchored where it now stands.  Under an open window
        it keeps its anchor q while it stays within ``reach`` of it:
        every entry in the window was nominated from within ``reach`` of
        q at the widened radius, so by the triangle inequality it covers
        every position p with ‖p − q‖ ≤ ``reach``.  A client that drifts
        further loses its anchor, and its next walk re-nominates."""
        for oid in values:
            record = self.clients.get(self._avatar_owner.get(oid))
            if record is None:
                continue
            position = self._client_position(record.client_id)
            if position == self._client_index.position_of(record.client_id):
                continue
            self._client_index.update(record.client_id, position)
            placed = position or UNPLACED
            if record.scanned_pos >= self._nominated_upto:
                record.anchor = placed
            elif record.anchor and placed.distance_to(record.anchor) > self.predicate.reach:
                record.anchor = None

    def _note_completion(self, entry: QueueEntry, message: Completion) -> None:
        """Hook: ``message`` passed every screen and is about to be
        recorded against ``entry``.  The sharded server relays a span
        owner's result to the involved peers here."""

    def _note_submission(self, src: ClientId, action: Action) -> None:
        """Hook: a fresh (non-duplicate) submission from an attached
        client was accepted for timestamping.  The sharded server
        tracks it as unresolved for the handoff barrier."""

    def _note_resolved(self, entry: QueueEntry) -> None:
        """Hook: ``entry`` just left the queue (committed or dropped).
        The sharded server clears unresolved-tracking and logs the
        resolution for handoff."""

    def _note_position_change(self, entry: QueueEntry) -> bool:
        """Track t_C for velocity culling: the originator's committed
        position just (potentially) changed.  Whether it did — the
        entry wrote an attached originator's avatar."""
        record = self.clients.get(entry.action.client_id)
        if record is not None:
            avatar_oid = self.avatar_of(record.client_id)
            if avatar_oid is not None and avatar_oid in entry.action.writes:
                record.position_time = self.sim.now
                return True
        return False

    # ------------------------------------------------------------------
    # Liveness and fault tolerance (Section III-C)
    # ------------------------------------------------------------------
    def _abort_orphans(self) -> None:
        """The shell's eviction hook — apply the Section III-C rule: an
        uncommitted action may be treated as never submitted **only**
        when every client that could
        report its stable result — everyone it was sent to, plus its
        originator — is presumed dead.  (If any holder is alive it may
        already have applied the action to its stable replica, so
        aborting would diverge.)"""
        aborted = False
        for entry in self._entries:
            if entry.completion is not None or entry.valid is not True:
                # Committed-ready, already dropped, or still awaiting
                # Information Bound validation (a later sweep gets it —
                # flipping ``valid`` under the validator would race it).
                continue
            holders = set(entry.sent) | {entry.action.client_id}
            if any(holder in self.clients for holder in holders):
                continue
            aborted |= self._abort_orphan(entry)
        if aborted:
            self._advance_frontier()

    def _abort_orphan(self, entry: QueueEntry) -> bool:
        """Treat ``entry``, whose holders are all gone, as never
        submitted; whether it was aborted.  (Hook: only a spanning
        action's owner shard may decide, and it tells the others.)"""
        self._drop(entry)
        self.stats.orphans_aborted += 1
        return True

    def _drop(self, entry: QueueEntry) -> None:
        """Drop the validated ``entry``: it leaves every chain it was in."""
        entry.valid = False
        self.stats.actions_dropped += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def uncommitted_count(self) -> int:
        """Live (serialized but not yet installed) actions."""
        return len(self._entries)

    @property
    def closure_cpu_ms(self) -> float:
        """Simulated CPU-ms spent computing transitive closures."""
        return self.stats.closures_computed * CLOSURE_MS

    @property
    def commit_frontier(self) -> int:
        """Position of the last installed action (-1 initially)."""
        return self._base_pos - 1

    def __repr__(self) -> str:
        return (
            f"IncompleteWorldServer(committed={self.stats.actions_committed}, "
            f"live={len(self._entries)}, clients={len(self.clients)})"
        )
