"""Spanning actions: one shard's end of the cross-shard span pipeline.

*Local actions* — whose influence disc lies inside one stripe — are
timestamped, validated and distributed entirely by their owner shard.
*Spanning actions* — whose influence disc crosses a stripe border —
serialize through a deterministic two-phase forward:

1. The owner shard (where the originator is attached) admits and
   dedups the action, classifies its involved shard set, and forwards
   it to the **sequencer** — the shard holding the gsn lease, shard 0
   unless a failover moved it — instead of its local queue.  Until the
   splice comes back, the client's later submissions are held, so its
   stream order matches its submission order.
2. The sequencer assigns a monotonically increasing **global sequence
   number** (gsn) and broadcasts a splice to every involved shard over
   the fault-free FIFO backbone.  Each shard splices the action into
   its local stream at its next position; because splices leave the
   sequencer in gsn order and backbone links are FIFO, every shard
   orders all spanning actions identically — so each client's observed
   stream embeds into one global serializable order (local actions are
   observed by clients of exactly one shard and may interleave freely
   between spanning actions).

On its owner shard a spliced spanning action is an ordinary entry:
every client attached there gets the code, and on the owner's stream
its inputs are exactly those its originator read.  A *peer* shard
decides once, at splice, whether the span's inputs on its own stream
are provably those the owner's stream gives it; if so its clients get
the code too.  Otherwise the entry is a *value entry*
(``QueueEntry.span_value``): its clients receive the committed result
as a positioned :class:`~repro.core.action.BlindWrite`, deliverable
only once the owner has relayed the result via ``SpanResult``.  A
peer's closure touching a value entry whose result is still unknown
defers whole (see :func:`repro.core.closure.transitive_closure`); this
is what prevents replica divergence from K independent evaluations
against K replicas.

:class:`SpanPipeline` is a transport-free unit like
:class:`~repro.core.handoff.HandoffBarrier`: its messages come in
through ``SpanPipeline.HANDLERS``, the server's events through its hook
methods, and it reaches the server only through the
:class:`~repro.core.sharded.ShardView` the other units share.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.action import Action, ActionId, ActionResult
from repro.core.closure import QueueEntry
from repro.core.messages import SpanAbort, SpanForward, SpanResult, SpanSplice
from repro.core.server_basic import TIMESTAMP_MS
from repro.errors import ProtocolError
from repro.types import ClientId, shard_host_id


class SpanPipeline:
    """One shard's end of the span pipeline: classification, hold-back
    and forwarding (owner side), sequencing (lease holder), splicing
    and the peer verdict (every involved side), and the result and abort
    relays.

    Messages come in through :attr:`HANDLERS` and the server's events
    through the hook methods.  Everything else goes through ``view``,
    read afresh at each use: ``shard_index``, ``partition``, ``dead``,
    ``clients``, ``stats``, ``now``, ``sim`` (its observer),
    ``rebalancer`` (its ``epochs``, ``widen``, ``stamps`` and
    ``config``), ``lease``,
    ``speaks_at_will``, ``host`` and ``recovery``; the queue
    as ``entries`` from ``base_pos`` with its ``writer_index``, and
    ``avatar_owner``; the sends ``send_peer(shard, message)`` and
    ``to_holder(message)``; and the requests ``admit(client, action)``
    (timestamp a local action, or release it if the client left),
    ``enqueue(action, valid)``, ``drop(entry)`` and ``advance()`` (the
    commit frontier).
    """

    # One per shard server: slots keep a built partition replica inside
    # its memory ratchet (scripts/memory_ratchet.py).
    __slots__ = ("view", "slack", "unspliced", "sequenced", "held", "queued", "live", "gsns")

    #: Dispatch table, in the form of the servers' ``HANDLERS``.
    HANDLERS = {
        SpanForward: "on_forward",
        SpanSplice: "on_splice",
        SpanResult: "on_result",
        SpanAbort: "on_abort",
    }

    def __init__(self, view, slack: float) -> None:
        self.view = view
        #: Classification radius added to an action's own: wide enough
        #: that no client of an uninvolved shard can want the action.
        self.slack = slack
        #: Owner side: span forwards awaiting their splice, re-sent when
        #: the sequencer dies (lease failover or restart hello).
        self.unspliced: Dict[ActionId, SpanForward] = {}
        #: Sequencer side: the gsn this shard gave each action (dedup
        #: for failover re-forwards that race an in-flight splice).
        self.sequenced: Dict[ActionId, int] = {}
        #: Owner side: a client has a key here exactly while one span
        #: forward of it awaits its splice, and the key holds the
        #: submissions parked behind that span, admitted in arrival
        #: order once the splice returns.
        self.held: Dict[ClientId, List[Action]] = {}
        #: Ids of spanning submissions whose admission (and so their
        #: forward) still waits on this shard's host.
        self.queued: set = set()
        #: Span entries still in the queue, by action id.
        self.live: Dict[ActionId, QueueEntry] = {}
        #: Every gsn of a span spliced here (kept for the cross-shard
        #: consistency audit).
        self.gsns: Dict[ActionId, int] = {}

    def involved(self, action: Action) -> Tuple[int, ...]:
        """The shards whose regions the action's influence disc (plus
        the classification slack) intersects.

        During a rebalance epoch the *union* over the current and every
        open epoch's superseded partition decides: a write into
        contested territory must reach old and new owner alike, so
        neither store goes stale while ownership is in flight."""
        view = self.view
        if action.position is None:
            # No spatial footprint: conservatively involves everyone.
            return tuple(range(view.partition.shards))
        x, radius = action.position.x, action.radius + self.slack
        involved = view.partition.shards_touching(x, radius)
        if view.rebalancer.epochs:
            return view.rebalancer.widen(x, radius, involved)
        return involved

    # -- the server's events -------------------------------------------------
    def submitted(self, action: Action) -> None:
        """A fresh submission was accepted for timestamping."""
        if len(self.involved(action)) > 1:
            self.queued.add(action.action_id)

    def admit(self, client_id: ClientId, action: Action) -> None:
        """Admission, once the host timestamped ``action``: held while a
        span forward of the client is in flight (admitting it now would
        serialize it *before* the span here, while the client's stream
        expects submission order), else admitted or forwarded."""
        self.queued.discard(action.action_id)
        if client_id in self.held:
            self.held[client_id].append(action)
        else:
            self._drain(client_id, [action])

    def _drain(self, client_id: ClientId, actions: List[Action]) -> None:
        """Admit ``actions`` in order until a spanning one: forward it to
        the sequencer and hold the rest behind it."""
        view = self.view
        while actions:
            action = actions.pop(0)
            involved = self.involved(action)
            if len(involved) == 1 or client_id not in view.clients:
                view.admit(client_id, action)  # released there if the client left
                continue
            # Held before the forward: a sequencer that is this shard
            # splices it back at once, and drains the rest.
            self.held[client_id] = actions
            view.stats.spans_forwarded += 1
            if view.sim.obs is not None:
                view.sim.obs.on_shard_forward(view.now, view.shard_index, len(involved))
            message = SpanForward(view.shard_index, involved, action)
            # Tracked until the splice returns: a dead sequencer drops
            # the send at dispatch, and the forward is re-sent once a
            # successor is granted the lease (or the restarted sequencer
            # hellos).
            self.unspliced[action.action_id] = message
            view.to_holder(message)
            return

    def completed(self, entry: QueueEntry, result: ActionResult) -> None:
        """Owner side: the first screened completion of a span — its
        originator's, or under fault tolerance any owner client's — is
        its committed result; relay it to the involved peers before the
        frontier (possibly) pops the entry."""
        if entry.span_owner_shard == self.view.shard_index and entry.span_result is None:
            entry.span_result = result
            self._tell_involved(entry, SpanResult(entry.gsn, entry.action.action_id, result))

    def orphaned(self, entry: QueueEntry) -> bool:
        """``entry``'s holders are all gone: whether this shard may abort
        it.  Only a span's owner may, and it tells the involved peers."""
        owner = entry.span_owner_shard == self.view.shard_index
        if owner:
            self._tell_involved(entry, SpanAbort(entry.gsn, entry.action.action_id))
        return owner or entry.gsn < 0

    def resolved(self, entry: QueueEntry) -> None:
        """``entry`` left the queue, committed or dropped."""
        self.live.pop(entry.action.action_id, None)

    def detached(self, client_id: ClientId) -> None:
        """The client left this shard: its held submissions go with it."""
        self.held.pop(client_id, None)

    def redrive(self) -> None:
        """The sequencer moved or restarted: re-send every forward whose
        splice never came back."""
        for message in list(self.unspliced.values()):
            self.view.to_holder(message)

    # -- sequencing and splicing -------------------------------------------------
    def on_forward(self, src: ClientId, message: SpanForward) -> None:
        """Sequencer side: assign the next gsn and send the splice to
        every involved shard (a self-splice runs at once; peers receive
        over FIFO backbone links, preserving gsn order per shard)."""
        view, lease = self.view, self.view.lease
        if not lease.is_holder:
            if lease.moves:
                # Stale routing during a lease failover: the owner
                # re-forwards to the new holder on the LeaseGrant.
                return
            raise ProtocolError(
                f"shard {view.shard_index} received a SpanForward "
                f"(only shard {lease.holder} sequences)"
            )
        if message.owner in view.dead:
            # The owner shard died after forwarding: its originator is
            # gone with it, so sequencing would only create entries
            # every survivor must then takeover-abort.
            return
        if message.action.action_id in self.sequenced:
            # A failover re-forward raced the original splice (the dead
            # holder's broadcast was already in flight when the owner
            # re-sent); the first gsn stands.
            return
        if view.rebalancer.config is not None:
            # Re-classify against the sequencer's partition view: the
            # owner may have forwarded under boundaries it had not yet
            # seen superseded (the controller flips one backbone-hop
            # earlier than everyone else).  The union can only grow, so
            # every store that needs this write gets the splice.
            touched = set(message.involved).union(self.involved(message.action))
            if len(touched) > len(message.involved):
                message = SpanForward(message.owner, tuple(sorted(touched)), message.action)
        gsn = self.sequenced[message.action.action_id] = lease.assign_gsn()
        view.stats.spans_sequenced += 1
        if view.recovery is not None:
            view.recovery.note_gsn(gsn)
        view.host.execute(TIMESTAMP_MS, lambda: None)
        splice = SpanSplice(gsn, message.owner, message.involved, message.action)
        for shard in message.involved:
            if shard == view.shard_index:
                self.on_splice(shard_host_id(shard), splice)
            elif shard not in view.dead:
                view.send_peer(shard, splice)

    def on_splice(self, src: ClientId, splice: SpanSplice) -> None:
        """Splice a sequenced spanning action into the local stream at
        the next position, pre-validated (the sequencer's gsn order
        admits it; Information Bound geometry does not apply).  A peer
        takes its verdict first, so the span is not yet a queued writer
        of its own inputs."""
        view, action = self.view, splice.action
        action_id = action.action_id
        if action_id in self.gsns:
            return  # duplicate splice from a failover re-forward
        if splice.owner in view.dead:
            # Spliced while the owner crashed (broadcast in flight):
            # its result can never arrive, so never enqueue it (the
            # takeover abort only sweeps entries spliced *before* the
            # crash notice).
            return
        owner = splice.owner == view.shard_index
        # A peer's clients get the code only where no span can abort and
        # no store change outside the stream: on a shard that never
        # speaks at will.
        value = not owner and (view.speaks_at_will or not self._inputs_match_owner(splice))
        entry = view.enqueue(action, True)
        entry.span_value = value
        entry.span_owner_shard = splice.owner
        entry.gsn = splice.gsn
        entry.span_involved = splice.involved
        view.stats.spans_spliced += 1
        self.live[action_id] = entry
        self.gsns[action_id] = splice.gsn
        view.lease.observe_gsn(splice.gsn)
        view.host.execute(TIMESTAMP_MS, lambda: None)
        if view.sim.obs is not None:
            view.sim.obs.on_shard_splice(view.now, view.shard_index, splice.gsn, entry.pos)
        if owner:
            self.unspliced.pop(action_id, None)
            self._drain(action.client_id, self.held.pop(action.client_id, []))

    def _inputs_match_owner(self, splice: SpanSplice) -> bool:
        """Peer side, before the splice enqueues: whether each object
        the span reads holds here what the owner's stream gives it, so
        this shard's clients may get its code (docs/sharding.md, "Value
        entries").  Its last committed writer here
        (``Rebalancer.stamps``) and every writer still queued here must
        be spans the owner splices too; and the object must be the
        mover's avatar, written here by the mover's actions up to this
        one with no seq missing, or the avatar of a client attached
        here."""
        view = self.view
        owner, action = splice.owner, splice.action
        mover, seq = action.action_id
        live, base, entries = view.writer_index.live_positions, view.base_pos, view.entries
        stamps = view.rebalancer.stamps
        # All-accumulation: visit order cannot change the verdict.
        for oid in action.reads:  # lint: allow(set-iteration)
            stamp = stamps.get(oid)
            queued = [entries[pos - base] for pos in live(oid)]
            run = [stamp[2:]] if stamp else []  # (writer id, involved shards)
            run += [(entry.action.action_id, entry.span_involved) for entry in queued]
            if not all(owner in involved for _, involved in run):
                return False  # a local writer, or a dirty mark
            if oid in action.writes:
                first = stamp[2].seq if stamp else 0
                if [w for w, _ in run] != [ActionId(mover, n) for n in range(first, seq)]:
                    return False
            elif oid not in view.avatar_owner:
                return False
        return True

    # -- the result and abort relays -------------------------------------------
    def _tell_involved(self, entry: QueueEntry, message: object) -> None:
        """Owner side: send a span's fate to the other involved shards."""
        view = self.view
        for shard in entry.span_involved:
            if shard != view.shard_index:
                view.send_peer(shard, message)

    def on_result(self, src: ClientId, message: SpanResult) -> None:
        """Peer side: record the committed result of a spliced spanning
        action — unblocking value-entry distribution and the commit
        frontier."""
        entry = self.live.get(message.action_id)
        if entry is None or entry.span_result is not None:
            return  # already resolved (e.g. aborted), or a duplicate
        entry.span_result = message.result
        entry.record_completion(message.result, src)
        self.view.advance()

    def on_abort(self, src: ClientId, message: SpanAbort) -> None:
        """Peer side: the owner aborted a spanning action; drop the
        spliced entry so the frontier can pass it."""
        entry = self.live.get(message.action_id)
        if entry is None or entry.completion is not None:
            return  # resolved, or the result won the race: the abort is stale
        self.view.drop(entry)
        self.view.advance()
