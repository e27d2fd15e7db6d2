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
from typing import Callable, Deque, Dict, Iterator, List, Optional, Set, Tuple

from repro.core.action import Action, ActionId, BlindWrite
from repro.core.closure import KnownValuesTracker, QueueEntry, transitive_closure
from repro.core.first_bound import FirstBoundPredicate
from repro.core.indexes import ClientSpatialIndex, WriterIndex
from repro.core.info_bound import InformationBound
from repro.core.interest import is_consequential
from repro.core.messages import (
    CONSERVATION_GROUPS,
    AbortNotice,
    ActionBatch,
    CommitNotice,
    Completion,
    Heartbeat,
    OrderedAction,
    SubmitAction,
    wire_size,
)
from repro.errors import ConfigurationError, ProtocolError
from repro.net.faults import LivenessConfig
from repro.net.host import Host
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.state.versioned import VersionedStore
from repro.types import SERVER_ID, ClientId, ObjectId, TimeMs
from repro.world.geometry import Vec2


@dataclass
class ServerCosts:
    """Simulated CPU costs of the server's bookkeeping, in ms.

    Defaults are calibrated to the paper's measurements: 0.04 ms per
    transitive-closure computation, with timestamping and per-entry push
    overhead sized so a single server saturates around the paper's
    empirically determined limit of ~3500 clients.
    """

    timestamp_ms: float = 0.02
    closure_ms: float = 0.04
    push_entry_ms: float = 0.02
    validate_ms: float = 0.01


#: Messages whose spec says ``group="elastic"`` (the one conservation
#: group): counted once on each side of a server's message seam
#: (docs/sharding.md).
COUNTED_MESSAGES = frozenset(CONSERVATION_GROUPS["elastic"])


def _no_avatar(client_id: ClientId) -> None:
    """The ``avatar_of`` of a server that was given none."""
    return None


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
    #: Highest queue position ever delivered to this client.  Algorithm 6
    #: subtracts the writes of already-sent entries assuming the client
    #: applies entries in pos order; a closure chain that would pull an
    #: entry *below* this mark breaks that assumption and is deferred.
    high_water: int = -1
    #: Virtual time the client's committed position last changed
    #: (t_C for the Section IV-B velocity-culled predicate).
    position_time: TimeMs = 0.0
    #: Ascending queue positions nominated for this client and not yet
    #: pushed: a superset of what ``_wants`` admits in its window
    #: ``(scanned_pos, nominated]`` (docs/performance.md).
    pending: List[int] = field(default_factory=list)
    #: The committed position changed under a non-empty window, so
    #: ``pending`` no longer bounds it: until the client has caught up,
    #: its pushes walk the window itself.
    stale: bool = False


@dataclass
class IncompleteServerStats:
    """Server-side counters read by the harness."""

    actions_serialized: int = 0
    actions_dropped: int = 0
    actions_committed: int = 0
    closures_computed: int = 0
    entries_distributed: int = 0
    blind_writes_sent: int = 0
    blind_objects_sent: int = 0
    batches_sent: int = 0
    push_cycles: int = 0
    #: Resubmissions absorbed by the ActionId dedup filter.
    duplicate_submissions: int = 0
    #: Clients evicted by the liveness timeout (Section III-C).
    clients_evicted: int = 0
    #: Entries aborted because every client holding them failed.
    orphans_aborted: int = 0
    #: Closures deferred to preserve per-client pos-ascending delivery.
    closures_deferred: int = 0
    #: Replies parked by the in-order delivery guard (reactive mode).
    #: Conservation: every parked reply must eventually be answered
    #: (pushed, blind-written from committed values, or retired with
    #: its client) — ``replies_parked == replies_answered`` at
    #: quiescence is the invariant that catches the PR 9
    #: deferred-push replica gap mechanically.
    replies_parked: int = 0
    #: Parked replies later answered or retired (see replies_parked).
    replies_answered: int = 0


class IncompleteWorldServer:
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
    stats, and the simulated :class:`ServerCosts` accounting are
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
        costs: Optional[ServerCosts] = None,
        avatar_of: Optional[Callable[[ClientId], ObjectId]] = None,
        liveness: Optional[LivenessConfig] = None,
        server_id: ClientId = SERVER_ID,
        obs=None,
        detector=None,
    ) -> None:
        if info_bound is not None and predicate is None:
            raise ConfigurationError(
                "the Information Bound Model requires First Bound pushes "
                "(tick-aligned validation cannot serve reactive replies)"
            )
        if tick_ms <= 0:
            raise ConfigurationError(f"tick must be positive, got {tick_ms}")
        self.sim = sim
        self.network = network
        self.host = host
        self.state = state
        #: Network address this server sends/receives as.  The classic
        #: deployment uses :data:`SERVER_ID`; shard servers get their
        #: own negative host ids.
        self.server_id = server_id
        self.predicate = predicate
        self.info_bound = info_bound
        self.tick_ms = tick_ms
        self.costs = costs or ServerCosts()
        #: Client -> avatar object id.  Without one every client is
        #: position-less: a push candidate for every action.
        self.avatar_of = avatar_of or _no_avatar
        self.liveness = liveness
        #: Optional :class:`repro.obs.Observer`.  Read-only telemetry:
        #: the observer never changes costs, batches, or scheduling.
        self._obs = obs
        #: Optional :class:`repro.core.detection.CheatDetector` shared
        #: by every server of the engine; ``None`` (honest runs) keeps
        #: every path byte-identical to the pre-detection code.
        self.detector = detector
        self.known = KnownValuesTracker()
        self.stats = IncompleteServerStats()
        #: ActionIds already serialized (idempotent resubmission; grows
        #: with the run — acceptable for simulation-length histories,
        #: see docs/fault_model.md for the memory tradeoff).
        self._seen_actions: Set[ActionId] = set()
        self._last_heard: Dict[ClientId, TimeMs] = {}
        #: Optional hook fired after each commit with
        #: ``(pos, client_id, values)`` — the audit log attaches here.
        self.on_commit: Optional[
            Callable[[int, ClientId, Dict[ObjectId, dict]], None]
        ] = None
        self.clients: Dict[ClientId, ClientRecord] = {}
        self._entries: Deque[QueueEntry] = deque()
        self._next_pos = 0
        self._base_pos = 0  # pos of _entries[0]; == _next_pos when empty
        self._validated_upto = -1
        #: Highest queue position whose push candidates were nominated.
        self._nominated_upto = -1
        self._blind_seq = 0
        self._stoppers: List[Callable[[], None]] = []
        self._writer_index = WriterIndex()
        self._client_index = ClientSpatialIndex()
        self._avatar_owner: Dict[ObjectId, ClientId] = {}
        #: Reactive replies deferred by the in-order delivery guard,
        #: per client; retried whenever the commit frontier advances.
        self._deferred_replies: Dict[ClientId, List[int]] = {}
        #: ``pos -> (action_id, written ids)`` of entries that committed
        #: while a reply to them was still deferred — the retry answers
        #: from the committed value instead of dropping the reply (the
        #: non-push replica gap), and confirms the originator's pending
        #: submission with a CommitNotice (its echo can never arrive).
        #: GC'd as the parked positions drain.
        self._deferred_commits: Dict[int, tuple] = {}
        #: Set by :meth:`crash`: this server's host died.
        self._crashed = False
        #: :data:`COUNTED_MESSAGES` that crossed this server's seam, out
        #: and in.  Quiescence requires the sums over all servers to
        #: match, so that none is still in flight.  (Only shard servers
        #: exchange them: the group is backbone control traffic.)
        self.elastic_sent = 0
        self.elastic_received = 0
        self._handlers: Dict[type, Callable[[ClientId, object], None]] = {
            message_type: getattr(self, name)
            for message_type, name in self.HANDLERS.items()
        }
        network.register(self.server_id, self._on_message)

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
        """Register a client for distribution (before the run starts)."""
        if client_id in self.clients:
            raise ProtocolError(f"client {client_id} already attached")
        self.clients[client_id] = ClientRecord(
            client_id,
            radius=radius,
            interests=interests,
            scanned_pos=self._next_pos - 1,
        )
        self._last_heard[client_id] = self.sim.now
        avatar_oid = self.avatar_of(client_id)
        if avatar_oid is not None:
            self._avatar_owner[avatar_oid] = client_id
        self._client_index.note_radius(radius)
        self._client_index.update(client_id, self._client_position(client_id))

    def detach_client(self, client_id: ClientId) -> None:
        """Unregister a failed/departed client."""
        self.clients.pop(client_id, None)
        self._last_heard.pop(client_id, None)
        retired = self._deferred_replies.pop(client_id, None)
        if retired:
            # A departed client's parked replies are retired, not
            # dropped: count them answered so the parked/answered
            # conservation invariant stays balanced at quiescence.
            self.stats.replies_answered += len(retired)
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
        """Install the periodic processes (validation tick, push cycle)."""
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
        if self.liveness is not None:
            self._stoppers.append(
                self.sim.call_every(
                    self.liveness.timeout_ms / 2.0,
                    self._liveness_tick,
                    stop_at=stop_at,
                )
            )

    def stop(self) -> None:
        """Tear down the periodic processes."""
        for stopper in self._stoppers:
            stopper()
        self._stoppers.clear()

    def crash(self) -> None:
        """This server's host died: it handles nothing from now on."""
        self._crashed = True
        self.stop()

    # ------------------------------------------------------------------
    # The message seam: one dispatcher in, one send out
    # ------------------------------------------------------------------
    #: Dispatch table: message type -> name of its handler method,
    #: called as ``handler(src, message)``.  Subclasses extend it; the
    #: protocol analyzer (docs/static_analysis.md) reads the keys as
    #: handler sites, so keep it a literal dict of class names.
    HANDLERS = {
        Heartbeat: "_on_heartbeat",
        SubmitAction: "_on_submit",
        Completion: "_record_completion",
    }

    def _on_message(self, src: ClientId, payload: object) -> None:
        """The receiving side of the message seam: every message this
        server is handed goes through here, and only here."""
        if self._crashed:
            return  # a crashed server handles nothing
        if src in self._last_heard:
            self._last_heard[src] = self.sim.now
        kind = type(payload)
        handler = self._handlers.get(kind)
        if handler is None:
            raise ProtocolError(
                f"{type(self).__name__}: unexpected {kind.__name__} from {src}"
            )
        if kind in COUNTED_MESSAGES:
            self.elastic_received += 1
        handler(src, payload)

    def send(self, dst: ClientId, message: object) -> None:
        """The sending side of the seam: put ``message`` on the wire
        from this server's address, at its :func:`wire_size`."""
        self.network.send(self.server_id, dst, message, wire_size(message))

    def _on_heartbeat(self, src: ClientId, beat: Heartbeat) -> None:
        """Liveness only: the dispatcher already noted the sender."""

    def _on_submit(self, src: ClientId, message: SubmitAction) -> None:
        """Dedup and screen a submission and charge its timestamping
        cost; :meth:`_admit` enqueues it."""
        action = message.action
        detector = self.detector
        if action.action_id in self._seen_actions:
            if detector is not None and detector.check_replay(src, action):
                return
            self.stats.duplicate_submissions += 1
            return
        if src not in self.clients:
            # Detached/evicted: drop without burning the ActionId —
            # a delayed resubmission arriving after eviction must
            # not poison the dedup filter, or the client's
            # post-reattach resubmissions would be absorbed forever
            # and the action would never serialize.
            return
        if detector is not None:
            if detector.screen_submission(src, action):
                # Rejected before the id burn and before any server
                # CPU: a forged submission leaves zero footprint.
                return
            detector.remember_submission(action)
            detector.note_admit(src, action)
        self._seen_actions.add(action.action_id)
        self._note_submission(src, action)
        cost = self.costs.timestamp_ms
        if self.predicate is None:
            cost += self.costs.closure_ms
        self.host.execute(cost, lambda: self._admit(src, action))

    def _admit(self, src: ClientId, action: Action) -> None:
        """Algorithm 5 step 3(a): timestamp and enqueue."""
        if src not in self.clients:
            # Detached between receipt and admission: un-burn the id so
            # a post-reattach resubmission can still serialize.
            self._seen_actions.discard(action.action_id)
            self._forget_submission(src, action)
            return
        entry = QueueEntry(self._next_pos, action, arrived_at=self.sim.now)
        self._next_pos += 1
        self._entries.append(entry)
        self._writer_index.note_enqueued(entry.pos, action.writes)
        self.stats.actions_serialized += 1
        if self.info_bound is None:
            entry.valid = True
            self._validated_upto = entry.pos
        if self.predicate is None:
            self._reply(src, entry)

    # ------------------------------------------------------------------
    # Reactive replies (plain Incomplete World Model)
    # ------------------------------------------------------------------
    def _reply(self, client_id: ClientId, entry: QueueEntry) -> None:
        """Algorithm 5 step 3(b): answer a submission with its closure."""
        if not self.network.is_registered(client_id):
            return  # connection dropped since the submission arrived
        batch_entries, _ = self._closure_entries(client_id, entry)
        if batch_entries is None:
            self._deferred_replies.setdefault(client_id, []).append(entry.pos)
            self.stats.replies_parked += 1
            return
        self._send_batch(client_id, batch_entries)

    def _closure_entries(
        self, client_id: ClientId, entry: QueueEntry
    ) -> Tuple[Optional[List[OrderedAction]], float]:
        """Compute Algorithm 6's reply A for ``entry`` -> ``client_id``.

        Returns the ordered wire entries (blind-write prefix included)
        and the simulated CPU cost of computing them.

        Returns ``(None, cost)`` — the in-order delivery guard — when
        the closure chain would pull an entry older than something the
        client already holds.  Algorithm 6's sent(a) subtraction assumes
        each client applies entries in pos order; delivering a skipped
        entry late (because a fault-delayed commit kept it in the queue
        long enough for a later chain to re-pull it) would make the
        client evaluate it against *future* values of its read set and
        diverge.  A deferral always waits on strictly older entries, so
        it unwinds as the commit frontier advances: once the blockers
        commit they leave the queue and the blind-write seed covers them
        at their committed versions.
        """
        index = entry.pos - self._base_pos
        chain, seed = transitive_closure(
            self._entries,
            index,
            client_id,
            writer_index=self._writer_index,
            base_pos=self._base_pos,
        )
        self.stats.closures_computed += 1
        cost = self.costs.closure_ms
        if self._obs is not None:
            self._obs.on_push_closure(cost)
        if chain is None:
            # Span-pending deferral (sharded deployments): the chain
            # touches a spliced spanning action whose committed result
            # has not arrived yet.  transitive_closure already unwound
            # its sent marks; retry on a later cycle.
            self.stats.closures_deferred += 1
            return None, cost
        record = self.clients.get(client_id)
        if record is not None:
            if chain and self._entries[chain[0]].pos < record.high_water:
                # transitive_closure marked the chain sent in place;
                # undo that so a later retry rebuilds it from scratch.
                for chain_index in chain:
                    self._entries[chain_index].sent.discard(client_id)
                self.stats.closures_deferred += 1
                return None, cost
            record.high_water = max(record.high_water, entry.pos)
        batch_entries: List[OrderedAction] = []
        seed_needed = self.known.filter_seed(client_id, seed)
        if seed_needed:
            blind = BlindWrite.from_server(
                self._blind_seq, self.state.values_of(seed_needed)
            )
            self._blind_seq += 1
            self.known.record_blind_write(client_id, seed_needed)
            self.stats.blind_writes_sent += 1
            self.stats.blind_objects_sent += len(seed_needed)
            batch_entries.append(OrderedAction(-1, blind))
        for chain_index in chain:
            chained = self._entries[chain_index]
            batch_entries.append(
                OrderedAction(chained.pos, self._wire_action(client_id, chained))
            )
            cost += self.costs.push_entry_ms
        return batch_entries, cost

    def _wire_action(self, client_id: ClientId, entry: QueueEntry) -> Action:
        """The action to put on the wire for ``entry`` -> ``client_id``.

        Hook for the sharded server, which replaces spliced spanning
        actions with value-carrying blind writes for everyone but the
        originator.  The base server always sends the action itself.
        """
        return entry.action

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
        cost = self.costs.validate_ms * new_count
        if self._obs is not None:
            self._obs.on_validate(
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
    def _push_cycle(self) -> None:
        assert self.predicate is not None
        self.stats.push_cycles += 1
        obs = self._obs
        self._push_candidates()
        if obs is not None:
            obs.on_push_scan(
                self.sim.now,
                sum(len(record.pending) for record in self.clients.values()),
            )
        batches: List[Tuple[ClientId, List[OrderedAction]]] = []
        total_cost = 0.0
        for record in self.clients.values():
            # A parked handler is a broken connection: building a batch
            # would mark entries sent (and known values held) that can
            # never arrive — poisoning every closure after a reconnect.
            # The reconnect resync re-attaches from scratch instead.
            if not self.network.is_registered(record.client_id):
                continue
            if not (record.pending or record.stale):
                # Nothing nominated, so nothing in the window is wanted.
                record.scanned_pos = max(record.scanned_pos, self._validated_upto)
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
        candidate recipients (Equation (1) can admit no one outside
        ``reach + r_A + max r_C`` of p̄_A); position-less actions,
        velocity-culled actions, and position-less clients
        conservatively stay candidates for everything.  Candidates are
        exact-filtered per client by :meth:`_wants` when the list is
        walked, so the result is observationally identical to testing
        every client against every entry — as long as a list stays a
        superset of what ``_wants`` admits, which only a change to the
        client's committed position can break
        (:meth:`_refresh_indexed_positions` marks the record stale
        there; its ``position_time`` matters to velocity-culled actions
        only, and those are on every list).
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
                if (
                    record is not None
                    and record.scanned_pos < pos
                    and not record.stale
                ):
                    record.pending.append(pos)

    def _renominated(self, record: ClientRecord, start: int) -> Iterator[int]:
        """What a stale record walks in place of ``pending``: the
        positions from ``start`` on that asking the index again about
        every nominated entry would nominate for this client, at its
        committed position now."""
        client_id = record.client_id
        index = self._client_index
        index_radius = self.predicate.index_radius
        max_radius = index.max_client_radius
        for pos, entry in self._window(start, self._nominated_upto):
            action = entry.action
            radius = index_radius(action, max_radius)
            if (
                radius is None
                or action.client_id == client_id
                or index.is_candidate(client_id, action.position, radius)
            ):
                yield pos

    def _collect_push(
        self, record: ClientRecord
    ) -> Tuple[List[OrderedAction], float]:
        """All validated actions in (scanned, validated] that this client
        needs — Equation (1) survivors, own actions, and their closures —
        among the positions nominated for it: ``record.pending``, or,
        for a stale record, its window re-nominated as it is walked.
        """
        base = self._base_pos
        start = max(record.scanned_pos + 1, base)
        client_id = record.client_id
        client_position = self._client_position(client_id)
        batch_entries: List[OrderedAction] = []
        cost = 0.0
        pending, record.pending = record.pending, []
        walk = self._renominated(record, start) if record.stale else pending
        for at, pos in enumerate(walk):
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
                # In-order delivery guard: stop here so nothing newer
                # overtakes this candidate; it and everything after it
                # wait for the next push cycle.
                if not record.stale:
                    record.pending = pending[at:]
                record.scanned_pos = max(record.scanned_pos, pos - 1)
                return batch_entries, cost
            batch_entries.extend(closure_entries)
        record.stale = False
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
        index = message.pos - self._base_pos
        if index >= len(self._entries):
            raise ProtocolError(
                f"completion for unknown pos {message.pos} "
                f"(queue covers [{self._base_pos}, {self._next_pos}))"
            )
        entry = self._entries[index]
        if entry.action.action_id != message.action_id:
            raise ProtocolError(
                f"completion id mismatch at pos {message.pos}: "
                f"{entry.action.action_id} vs {message.action_id}"
            )
        entry.record_completion(message.result, src)
        self._advance_frontier()

    def _screen_completion(self, src: ClientId, message: Completion) -> bool:
        """Cheat-detection screen over a reported completion.

        ``True`` means *drop* (evidence, if any, is already flagged);
        honest paths fall through to the normal recording code.  The
        screen is **pure on accept** — a completion may be screened
        more than once (the shard server screens before relaying span
        results, then the shared base path screens again).
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
        index = message.pos - self._base_pos
        if index >= len(self._entries):
            detector.flag(
                "breach", src, action=message.action_id,
                detail=f"completion for unknown pos {message.pos}",
            )
            return True
        entry = self._entries[index]
        if entry.action.action_id != message.action_id:
            detector.flag(
                "breach", src, action=message.action_id,
                detail=f"completion id mismatch at pos {message.pos} "
                f"({entry.action.action_id})",
            )
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
        """Install ready entries in strict queue order; GC the queue."""
        deferred_positions = (
            {
                pos
                for positions in self._deferred_replies.values()
                for pos in positions
            }
            if self._deferred_replies
            else None
        )
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
            if deferred_positions and entry.pos in deferred_positions:
                # Someone's reactive reply to this entry is still
                # parked; remember what it wrote so the retry can teach
                # the committed values (see _retry_deferred_replies).
                self._deferred_commits[entry.pos] = (
                    entry.action.action_id,
                    entry.completion.written_ids(),
                )
            self.known.record_commit(
                entry.pos, entry.completion.written_ids(), entry.sent
            )
            self.stats.actions_committed += 1
            self._note_position_change(entry)
            if self.on_commit is not None:
                self.on_commit(entry.pos, entry.action.client_id, values)
        if self._deferred_replies:
            self._retry_deferred_replies()

    def _retry_deferred_replies(self) -> None:
        """Re-attempt reactive replies parked by the in-order guard.

        Runs whenever the commit frontier advances.  The blockers are
        strictly older than the deferred entry, so by the time the
        frontier reaches it everything below has left the queue, the
        chain is the entry alone, and the retry must succeed — a
        deferred reply is delayed, never lost.

        An entry can also *commit* while its reply is parked (a
        fault-tolerant reporter or a spliced span result overtakes the
        guard).  The entry has left the queue, so the closure reply is
        moot — but the client still needs its values, or a pull-style
        client would never learn about the neighbours the entry wrote
        (the non-push replica gap): answer with a blind write of the
        committed values instead of dropping.
        """
        for client_id in list(self._deferred_replies):
            if client_id not in self.clients:
                self.stats.replies_answered += len(
                    self._deferred_replies[client_id]
                )
                del self._deferred_replies[client_id]
                continue
            if not self.network.is_registered(client_id):
                continue  # keep parked; resync or eviction will clear it
            still: List[int] = []
            for pos in self._deferred_replies[client_id]:
                if pos < self._base_pos:
                    # Committed meanwhile: reply from the committed value.
                    record = self._deferred_commits.get(pos)
                    action_id, written = record if record else (None, None)
                    seed_needed = (
                        self.known.filter_seed(client_id, written)
                        if written
                        else frozenset()
                    )
                    if seed_needed:
                        blind = BlindWrite.from_server(
                            self._blind_seq,
                            self.state.values_of_present(seed_needed),
                        )
                        self._blind_seq += 1
                        self.known.record_blind_write(client_id, seed_needed)
                        self.stats.blind_writes_sent += 1
                        self.stats.blind_objects_sent += len(seed_needed)
                        self._send_batch(client_id, [OrderedAction(-1, blind)])
                    if action_id is not None and action_id.client_id == client_id:
                        # The parked reply was to the entry's own
                        # originator: its echo can never arrive (the
                        # entry left the queue), so confirm the pending
                        # submission explicitly or the client waits
                        # forever.
                        self.send(client_id, CommitNotice(pos, action_id))
                    self.stats.replies_answered += 1
                    continue
                entry = self._entries[pos - self._base_pos]
                if entry.valid is False or client_id in entry.sent:
                    self.stats.replies_answered += 1
                    continue
                batch_entries, _ = self._closure_entries(client_id, entry)
                if batch_entries is None:
                    still.append(pos)
                else:
                    self._send_batch(client_id, batch_entries)
                    self.stats.replies_answered += 1
            if still:
                self._deferred_replies[client_id] = still
            else:
                del self._deferred_replies[client_id]
        if self._deferred_commits:
            # GC: keep a committed-behind record only while some parked
            # client still references its position.
            live = {
                pos
                for positions in self._deferred_replies.values()
                for pos in positions
            }
            self._deferred_commits = {
                pos: record
                for pos, record in self._deferred_commits.items()
                if pos in live
            }

    def _refresh_indexed_positions(self, values: Dict[ObjectId, dict]) -> None:
        """Mirror a commit's avatar writes into the spatial client index
        so candidate queries always see exactly ζ_S's positions."""
        for oid in values:
            record = self.clients.get(self._avatar_owner.get(oid))
            if record is None:
                continue
            position = self._client_position(record.client_id)
            if position == self._client_index.position_of(record.client_id):
                continue
            self._client_index.update(record.client_id, position)
            # Nominations made for the old position no longer bound
            # what the client wants from a window it has not left yet.
            if record.scanned_pos < self._nominated_upto:
                record.stale = True

    def _note_submission(self, src: ClientId, action: Action) -> None:
        """Hook: a fresh (non-duplicate) submission from an attached
        client was accepted for timestamping.  The sharded server
        tracks it as unresolved for the handoff barrier."""

    def _forget_submission(self, src: ClientId, action: Action) -> None:
        """Hook: a submission noted via :meth:`_note_submission` was
        discarded before entering the queue (raced detach)."""

    def _note_resolved(self, entry: QueueEntry) -> None:
        """Hook: ``entry`` just left the queue (committed or dropped).
        The sharded server clears unresolved-tracking and logs the
        resolution for handoff."""

    def _note_position_change(self, entry: QueueEntry) -> None:
        """Track t_C for velocity culling: the originator's committed
        position just (potentially) changed."""
        record = self.clients.get(entry.action.client_id)
        if record is not None:
            avatar_oid = self.avatar_of(record.client_id)
            if avatar_oid is not None and avatar_oid in entry.action.writes:
                record.position_time = self.sim.now

    # ------------------------------------------------------------------
    # Liveness and fault tolerance (Section III-C)
    # ------------------------------------------------------------------
    def _liveness_tick(self) -> None:
        assert self.liveness is not None
        deadline = self.sim.now - self.liveness.timeout_ms
        for client_id in [
            cid for cid, heard in self._last_heard.items() if heard < deadline
        ]:
            self.evict_client(client_id)
        if self.stats.clients_evicted:
            # Entries can become orphaned after the eviction that killed
            # their last holder (e.g. they were admitted while the death
            # was undetected), so re-sweep every tick once anyone died.
            self._abort_orphans()

    def evict_client(self, client_id: ClientId) -> None:
        """Presume ``client_id`` dead (Section III-C): stop tracking and
        distributing to it, GC its index entries, and abort any queue
        entries only it was evaluating."""
        if client_id not in self.clients:
            return
        self.detach_client(client_id)
        self.network.reset_channels(client_id)
        self.stats.clients_evicted += 1
        self._abort_orphans()

    def _abort_orphans(self) -> None:
        """Apply the Section III-C rule: an uncommitted action may be
        treated as never submitted **only** when every client that could
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
        entry.valid = False
        self.stats.orphans_aborted += 1
        self.stats.actions_dropped += 1
        return True

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
        return self.stats.closures_computed * self.costs.closure_ms

    @property
    def commit_frontier(self) -> int:
        """Position of the last installed action (-1 initially)."""
        return self._base_pos - 1

    def __repr__(self) -> str:
        return (
            f"IncompleteWorldServer(committed={self.stats.actions_committed}, "
            f"live={len(self._entries)}, clients={len(self.clients)})"
        )
