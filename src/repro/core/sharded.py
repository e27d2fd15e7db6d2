"""Sharded multi-server SEVE: region partitioning, cross-shard action
forwarding, and client handoff (Section VII's "several servers can be
used, each of which is responsible for a different region").

The single-serializer SEVE engine commits every action through one
server CPU; this module distributes that serialization across K
**shard servers**, each owning a vertical stripe of the world and
running the full PR-1 machinery (First Bound pushes, Algorithm 6
closures, Information Bound validation, distribution indexes) over its
own clients and its own replica of the world state.

Design
------
*Local actions* — whose influence disc lies inside one stripe — are
timestamped, validated, and distributed entirely by their owner shard:
the common case, and the source of the K-way scaling.

*Spanning actions* — whose influence disc crosses a stripe border —
serialize through a deterministic two-phase forward:

1. The owner shard (where the originator is attached) admits and
   dedups the action, classifies its involved shard set, and forwards
   it to the **sequencer** — the shard holding the gsn lease, shard 0
   unless a failover moved it — instead of its local queue.
2. The sequencer assigns a monotonically increasing **global sequence
   number** (gsn) and broadcasts a splice to every involved shard over
   the fault-free FIFO backbone.  Each shard splices the action into
   its local stream at its next position; because splices leave the
   sequencer in gsn order and backbone links are FIFO, every shard
   orders all spanning actions identically — so each client's observed
   stream embeds into one global serializable order (local actions are
   observed by clients of exactly one shard and may interleave freely
   between spanning actions).

Only the *originator* ever evaluates a spanning action.  Everyone else
— including every client of every peer shard — receives its committed
result as a positioned :class:`~repro.core.action.BlindWrite` (a
*value entry*), which is only deliverable once the owner has relayed
the originator's completion via ``SpanResult``.  A closure touching a
spanning action whose result is still unknown defers whole (see
:func:`repro.core.closure.transitive_closure`); this is what prevents
replica divergence from K independent evaluations against K replicas.

*Handoff* — when a client's committed avatar position leaves its
shard's stripe by more than a hysteresis margin, the owner initiates a
migration: the client parks new submissions and acknowledges over its
FIFO uplink (proving the shard holds everything it ever sent); once
every one of the client's actions has resolved the owner transfers the
subscription over the backbone, and the new shard adopts and welcomes
the client, which atomically switches streams.  Resolved-action ids
ride along so the client can retire pending entries whose echoes died
with the old stream.

A one-shard deployment (``shards=1``) leaves every cross-shard path
dormant and is **byte-identical** to the classic single-server engine —
the differential tests pin this down.

*Fault tolerance* — crash and liveness plans are legal at every K
(docs/control_plane.md).  A crashed client's open span obligations are
resolved by the surviving holders under the all-holders-dead
orphan-abort rule; a reconnecting client rejoins through the
protocol-level hello path instead of the single-server oracle
re-attach.  Shard hosts can crash and restart: the restarted server
recovers its committed store and gsn counter from checkpoint+WAL
(:class:`repro.state.checkpoint.ShardRecoveryLog`), and survivors
adopt-or-abort the dead shard's span obligations.  The sequencer is
whichever shard holds the gsn lease, shard 0 at term 0; the lease, its
election and the gsn counter are :class:`repro.core.control_plane.GsnLease`,
which each shard server hosts.  The run's crash plan decides whether the
lease may move: when it schedules a shard crash, a heartbeat-driven
quorum failover moves the lease — sequencing and the elastic controller
with it — to a deterministically elected survivor, so the sequencer is
no longer a single point of failure; otherwise the lease is pinned to
shard 0 and no lease message is ever sent.

*Stripes* — one :class:`RegionPartition` type describes the stripes by
their interior cuts.  Every shard owns a copy; a static run never
changes it, and the elastic rebalancer (docs/elasticity.md) moves the
cuts of every copy under a new version.

*The peer seam* — every message a shard server receives goes through
the base server's one dispatcher and the ``HANDLERS`` table; every
message it sends a peer goes through ``_send_peer``, ``_broadcast`` or
``_to_holder``.  Conservation-group messages are counted there and
nowhere else (docs/sharding.md).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.action import Action, ActionId, BlindWrite
from repro.core.closure import QueueEntry
from repro.core.control_plane import (
    PINNED_LEASE,
    ControlPlaneConfig,
    FailoverEvent,
    GsnLease,
)
from repro.core.elastic import ElasticConfig, plan_boundaries
from repro.core.engine import SeveConfig, SeveEngine
from repro.core.info_bound import InformationBound
from repro.core.messages import (
    ClientHello,
    Completion,
    DrainDone,
    HandoffPrepare,
    HandoffReady,
    HandoffTransfer,
    HandoffWelcome,
    LoadReport,
    PartitionCommit,
    PartitionUpdate,
    RegionSync,
    ShardHello,
    SpanAbort,
    SpanForward,
    SpanResult,
    SpanSplice,
    SubmitAction,
)
from repro.core.server_incomplete import COUNTED_MESSAGES, IncompleteWorldServer
from repro.errors import ConfigurationError, ProtocolError
from repro.metrics.shard_audit import audit_sharded_run
from repro.net.host import Host
from repro.state.checkpoint import ShardRecoveryLog
from repro.state.versioned import VersionedStore
from repro.types import ClientId, TimeMs, shard_host_id


@dataclass(frozen=True)
class ShardingConfig:
    """Parameters of a sharded deployment."""

    #: Number of shard servers (vertical stripes of the world).
    shards: int = 2
    #: Width of the world's x extent; stripes partition [0, world_width).
    world_width: float = 1000.0
    #: Hysteresis, in world units, a committed avatar position must
    #: leave its stripe by before a handoff triggers (prevents border
    #: oscillation from thrashing migrations).
    handoff_margin: float = 10.0
    #: Elastic rebalancer knobs (docs/elasticity.md).  ``None`` (the
    #: default) keeps the static equal-width stripes and leaves every
    #: elastic code path dormant — byte-identical to a deployment
    #: without the rebalancer.
    elastic: Optional[ElasticConfig] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if self.world_width <= 0:
            raise ConfigurationError(
                f"world_width must be positive, got {self.world_width}"
            )
        if self.handoff_margin < 0:
            raise ConfigurationError("handoff_margin must be >= 0")


class RegionPartition:
    """Vertical-stripe partition of the world's x axis, defined by its
    interior cuts.

    Stripe k owns x in [boundaries[k-1], boundaries[k]) with the world
    edges closing the first and last stripe; positions outside
    [0, world_width) clamp to the border stripes, so every position has
    exactly one owner.  A new partition has equal-width stripes at
    version 0; ``apply`` swaps the cuts in place and bumps the version
    (the elastic rebalancer's data plane — docs/elasticity.md).  Every
    shard server (and hence every partition replica of the parallel
    backend) owns its *own copy* and flips it when the controller's
    ``PartitionUpdate`` arrives, so the flip happens at the same virtual
    time on every backend.

    >>> partition = RegionPartition(100.0, 4)
    >>> partition.boundaries, partition.version
    ([25.0, 50.0, 75.0], 0)
    >>> partition.shard_of(10.0), partition.shard_of(99.0)
    (0, 3)
    >>> partition.shards_touching(24.0, 3.0)
    (0, 1)
    >>> partition.apply(1, (40.0, 50.0, 60.0))
    >>> partition.shard_of(10.0), partition.shard_of(45.0), partition.version
    (0, 1, 1)
    >>> partition.bounds(3)
    (60.0, 100.0)
    >>> partition.shards_touching(55.0, 10.0)
    (1, 2, 3)
    """

    def __init__(
        self,
        world_width: float,
        shards: int,
        boundaries: Optional[Sequence[float]] = None,
    ) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if world_width <= 0:
            raise ConfigurationError(f"world_width must be positive, got {world_width}")
        if boundaries is None:
            width = world_width / shards
            boundaries = [width * k for k in range(1, shards)]
        if len(boundaries) != shards - 1:
            raise ConfigurationError(
                f"need {shards - 1} interior boundaries, got {len(boundaries)}"
            )
        self.world_width = world_width
        self.shards = shards
        self.boundaries: List[float] = list(boundaries)
        self.version = 0

    def apply(self, version: int, boundaries: Sequence[float]) -> None:
        """Flip to partition ``version`` with the given interior cuts."""
        self.version = version
        self.boundaries = list(boundaries)

    def shard_of(self, x: float) -> int:
        """Owner stripe of position ``x`` (clamped at the borders)."""
        return bisect_right(self.boundaries, x)

    def bounds(self, shard: int) -> Tuple[float, float]:
        """The [lo, hi) x-interval stripe ``shard`` owns."""
        lo = self.boundaries[shard - 1] if shard > 0 else 0.0
        hi = self.boundaries[shard] if shard < self.shards - 1 else self.world_width
        return lo, hi

    def shards_touching(self, x: float, radius: float) -> Tuple[int, ...]:
        """Ascending stripe indices intersecting [x - radius, x + radius]."""
        return tuple(range(self.shard_of(x - radius), self.shard_of(x + radius) + 1))

    def home_with_hysteresis(self, x: float, current: int, margin: float) -> int:
        """The stripe ``x`` belongs to, with a ``margin`` of tolerance
        around ``current``'s borders: a position within margin of the
        current stripe stays home."""
        lo, hi = self.bounds(current)
        if lo - margin <= x < hi + margin:
            return current
        return self.shard_of(x)


@dataclass
class ShardStats:
    """Per-shard counters of the cross-shard machinery."""

    #: Spanning actions this shard owned and forwarded for sequencing.
    spans_forwarded: int = 0
    #: Sequenced spanning actions spliced into this shard's stream.
    spans_spliced: int = 0
    #: Handoffs this shard initiated (clients migrating out).
    handoffs_out: int = 0
    #: Handoffs this shard completed (clients adopted).
    handoffs_in: int = 0
    #: Spanning actions sequenced by this shard (sequencer only).
    spans_sequenced: int = 0
    #: Rebalances committed (controller only; docs/elasticity.md).
    rebalances: int = 0
    #: Clients bulk-handed-off because a rebalance moved their stripe.
    bulk_handoffs: int = 0


class ShardServer(IncompleteWorldServer):
    """One shard: a full Incomplete World server over one world stripe.

    Extends the base server with span classification and two-phase
    forwarding (owner side), gsn splicing and value-entry distribution
    (every involved side), result/abort relays, the client-handoff
    state machine and the elastic epoch machine; hosts the gsn lease.
    With ``shards=1`` every override reduces to the base behaviour — no
    extra messages, no extra scheduled events — so a one-shard
    deployment is byte-identical to the classic server.
    """

    def __init__(
        self,
        *args,
        shard_index: int = 0,
        partition: Optional[RegionPartition] = None,
        span_slack: float = 0.0,
        handoff_margin: float = 10.0,
        elastic: Optional[ElasticConfig] = None,
        control: ControlPlaneConfig = PINNED_LEASE,
        recovery: Optional[ShardRecoveryLog] = None,
        **kwargs,
    ) -> None:
        self.shard_index = shard_index
        self.partition = partition or RegionPartition(1000.0, 1)
        self.span_slack = span_slack
        self.handoff_margin = handoff_margin
        self.shard_stats = ShardStats()
        # -- crash tolerance (docs/control_plane.md) --------------------
        #: Checkpoint+WAL recovery log; ``None`` unless the run's fault
        #: plan schedules shard crashes (zero overhead otherwise).
        self.recovery = recovery
        #: Shards the harness's crash oracle reported down (and not yet
        #: restarted) — the perfect failure detector of the simulation.
        #: Never rebound: the lease holds a reference.
        self._dead_shards: set = set()
        #: This shard's end of the gsn lease (term 0: shard 0 holds it).
        #: The holder is the sequencer — it assigns every gsn — and hosts
        #: the elastic controller.
        self.lease = GsnLease(
            shard_index,
            self.partition.shards,
            control,
            send_peer=self._send_peer,
            broadcast=self._broadcast,
            now=lambda: self.sim.now,
            dead=self._dead_shards,
            on_moved=self._sequencer_moved,
        )
        #: Owner-side span forwards awaiting their splice, re-forwarded
        #: when the sequencer dies (lease failover or restart hello).
        self._unspliced: Dict[ActionId, SpanForward] = {}
        #: Action ids this sequencer already assigned a gsn (dedup for
        #: failover re-forwards that race an in-flight splice).
        self._sequenced_ids: set = set()
        # -- elastic rebalancer state (dormant when elastic is None) ----
        self.elastic = elastic
        #: Open epochs: partition versions applied here but not yet
        #: committed by the controller (fence not passed everywhere).
        self._epochs: List[dict] = []
        #: Outbound handoff transfers parked until every open epoch's
        #: region syncs went out (syncs precede adoptions on FIFO
        #: backbone links, so a gainer never adopts into a stale store).
        self._parked_transfers: List[ClientId] = []
        #: Last-writer stamp per object: (gsn of last spanning write or
        #: -1, 1 if a local write followed it).  Region syncs carry the
        #: stamp; receivers apply strictly-newer entries only.
        self._sync_stamps: Dict[object, Tuple[int, int]] = {}
        #: Load-report rounds ticked so far; a restarted shard joins at
        #: the survivors' round (:meth:`resume`).
        self.load_round = 0
        self._last_cpu_ms = 0.0
        self._last_serialized = 0
        self._min_stripe = 0.0
        if elastic is not None:
            self._min_stripe = (
                elastic.min_stripe
                if elastic.min_stripe is not None
                else max(1.0, 2.0 * span_slack)
            )
        # -- controller (sequencer) state -------------------------------
        self._load_reports: Dict[int, Dict[int, LoadReport]] = {}
        self._imbalance_streak = 0
        self._pending_version: Optional[int] = None
        self._drain_done: set = set()
        #: Committed rebalances: {version, at_ms, imbalance, boundaries}.
        self.rebalance_log: List[dict] = []
        #: Per-client count of span forwards not yet spliced back.
        self._outstanding_spans: Dict[ClientId, int] = {}
        #: Per-client submissions parked behind an outstanding span
        #: (admitted in arrival order once the splice returns, so the
        #: client's stream order matches its submission order).
        self._held: Dict[ClientId, List[Action]] = {}
        #: Per-client ids of accepted submissions not yet resolved
        #: (committed or dropped) — the handoff barrier.
        self._unresolved: Dict[ClientId, set] = {}
        #: Per-client resolution log for the current attachment epoch,
        #: shipped in HandoffTransfer so the client can retire pending
        #: entries whose echoes died with the old stream.
        self._resolved_log: Dict[ClientId, List[ActionId]] = {}
        #: In-progress outbound handoffs: client -> {"target", "ready"}.
        self._handoffs: Dict[ClientId, dict] = {}
        #: Ids of spanning submissions whose admission (and so their
        #: span forward) still waits on this shard's host.
        self._queued_spans: set = set()
        #: Live span entries by action id -> queue position.
        self._span_entries: Dict[ActionId, int] = {}
        #: All gsns ever assigned to span actions seen by this shard
        #: (splice time; kept for the cross-shard consistency audit).
        self.span_gsns: Dict[ActionId, int] = {}
        super().__init__(*args, **kwargs)
        self._handlers.update(self.lease.handlers)
        #: This shard runs something that can put a message on the
        #: backbone at any event: a lease that can move, the elastic
        #: controller, a liveness sweep or a cheat quarantine (an
        #: eviction can abort a span), or an ARQ receiver (a gap can
        #: hold back a trigger and release it on a later packet).
        self._speaks_at_will = control.fails_over or any(
            part is not None
            for part in (elastic, self.liveness, self.detector, self.network.reliability)
        )

    # ------------------------------------------------------------------
    # The peer seam (docs/sharding.md): the dispatch table, and the
    # three ways a message leaves for another shard
    # ------------------------------------------------------------------
    #: The base server's three plus this class's thirteen; the four
    #: lease messages are the lease's own (``GsnLease.HANDLERS``, merged
    #: in per instance).
    HANDLERS = {
        **IncompleteWorldServer.HANDLERS,
        SpanForward: "_on_span_forward",
        SpanSplice: "_on_span_splice",
        SpanResult: "_on_span_result",
        SpanAbort: "_on_span_abort",
        HandoffTransfer: "_on_handoff_transfer",
        HandoffReady: "_on_handoff_ready",
        LoadReport: "_on_load_report",
        PartitionUpdate: "_on_partition_update",
        DrainDone: "_on_drain_done",
        PartitionCommit: "_on_partition_commit",
        RegionSync: "_on_region_sync",
        ShardHello: "_on_shard_hello",
        ClientHello: "_on_client_hello",
    }

    def _send_peer(self, shard: int, message: object) -> None:
        """Send ``message`` to shard ``shard`` over the backbone.  A
        conservation-group message is counted here — and never sent to
        a shard known dead, where nothing could count it back in."""
        if type(message) in COUNTED_MESSAGES:
            if shard in self._dead_shards:
                return
            self.elastic_sent += 1
        self.send(shard_host_id(shard), message)

    def _live_peers(self) -> List[int]:
        return [
            shard
            for shard in range(self.partition.shards)
            if shard != self.shard_index and shard not in self._dead_shards
        ]

    def _broadcast(self, message: object) -> None:
        """Send ``message`` to every live peer."""
        for shard in self._live_peers():
            self._send_peer(shard, message)

    def _to_holder(self, message: object) -> None:
        """Hand ``message`` to the lease holder — the sequencer and
        elastic controller: a local call when that is this shard."""
        if self.lease.is_holder:
            self._handlers[type(message)](self.server_id, message)
        else:
            self._send_peer(self.lease.holder, message)

    # ------------------------------------------------------------------
    # Admission: classification, hold-back, forwarding (owner side)
    # ------------------------------------------------------------------
    def _involved_shards(self, action: Action) -> Tuple[int, ...]:
        """The shards whose regions the action's influence disc (plus
        the conservative classification slack) intersects.

        During a rebalance epoch the *union* over the current and every
        open epoch's superseded partition decides: a write into
        contested territory must reach old and new owner alike, so
        neither store goes stale while ownership is in flight."""
        if self.partition.shards == 1:
            return (0,)
        if action.position is None:
            # No spatial footprint: conservatively involves everyone.
            return tuple(range(self.partition.shards))
        x, radius = action.position.x, action.radius + self.span_slack
        involved = self.partition.shards_touching(x, radius)
        if not self._epochs:
            return involved
        touched = set(involved)
        for epoch in self._epochs:
            touched.update(epoch["old"].shards_touching(x, radius))
        return tuple(sorted(touched))

    def _admit(self, src: ClientId, action: Action) -> None:
        self._queued_spans.discard(action.action_id)
        self._held.setdefault(src, []).append(action)
        # While a span forward of this client is in flight the action
        # stays parked: admitting it now would serialize it *before* the
        # span locally while the client's stream expects submission order.
        if not self._outstanding_spans.get(src):
            self._drain_held(src)

    def _note_stream_high(self) -> None:
        """Record the stream-position high-water in the recovery log so
        a restarted incarnation never re-issues an admitted position."""
        if self.recovery is not None:
            self.recovery.note_stream(self._next_pos - 1)

    def _forward_span(
        self, src: ClientId, action: Action, involved: Tuple[int, ...]
    ) -> None:
        self._outstanding_spans[src] = self._outstanding_spans.get(src, 0) + 1
        self.shard_stats.spans_forwarded += 1
        if self._obs is not None:
            self._obs.on_shard_forward(self.sim.now, self.shard_index, len(involved))
        message = SpanForward(self.shard_index, involved, action)
        # Tracked until the splice returns; re-forwarded if the
        # sequencer dies first (lease failover or restart hello).
        self._unspliced[action.action_id] = message
        # A dead sequencer drops the send at dispatch; the forward
        # stays in _unspliced and is re-sent once a successor is
        # granted the lease (or the restarted sequencer hellos).
        self._to_holder(message)

    def _drain_held(self, client_id: ClientId) -> None:
        """Admit parked submissions in order; stop (still holding the
        rest) if one of them is itself a spanning action.  Parked ones
        exist only while a span forward is outstanding, so a submission
        admitted with none outstanding is the only one drained."""
        held = self._held.get(client_id)
        while held:
            action = held.pop(0)
            if client_id not in self.clients:
                self._seen_actions.discard(action.action_id)
                self._forget_submission(client_id, action)
                continue
            involved = self._involved_shards(action)
            if len(involved) > 1:
                self._forward_span(client_id, action, involved)
                return
            super()._admit(client_id, action)
            self._note_stream_high()
        self._held.pop(client_id, None)

    # ------------------------------------------------------------------
    # Sequencing and splicing
    # ------------------------------------------------------------------
    def _on_span_forward(self, src: ClientId, message: SpanForward) -> None:
        if not self.lease.is_holder:
            if self.lease.config.fails_over:
                # Stale routing during a lease failover: the owner
                # re-forwards to the new holder on the LeaseGrant.
                return
            raise ProtocolError(
                f"shard {self.shard_index} received a SpanForward "
                f"(only shard {self.lease.holder} sequences)"
            )
        self._sequence_span(message)

    def _sequence_span(self, message: SpanForward) -> None:
        """Assign the next gsn and broadcast the splice to every
        involved shard (self-splices run synchronously; peers receive
        over FIFO backbone links, preserving gsn order per shard)."""
        if message.owner in self._dead_shards:
            # The owner shard died after forwarding: its originator is
            # gone with it, so sequencing would only create entries
            # every survivor must then takeover-abort.
            return
        if message.action.action_id in self._sequenced_ids:
            # A failover re-forward raced the original splice (the dead
            # holder's broadcast was already in flight when the owner
            # re-sent); the first gsn stands.
            return
        self._sequenced_ids.add(message.action.action_id)
        if self.elastic is not None:
            # Re-classify against the sequencer's partition view: the
            # owner may have forwarded under boundaries it had not yet
            # seen superseded (the controller flips one backbone-hop
            # earlier than everyone else).  The union can only grow, so
            # every store that needs this write gets the splice.
            touched = set(message.involved)
            touched.update(self._involved_shards(message.action))
            if len(touched) > len(message.involved):
                message = SpanForward(
                    message.owner, tuple(sorted(touched)), message.action
                )
        gsn = self.lease.assign_gsn()
        self.shard_stats.spans_sequenced += 1
        if self.recovery is not None:
            self.recovery.note_gsn(gsn)
        self.host.execute(self.costs.timestamp_ms, lambda: None)
        splice = SpanSplice(gsn, message.owner, message.involved, message.action)
        live = self._live_peers()
        for shard in message.involved:
            if shard == self.shard_index:
                self._on_span_splice(self.server_id, splice)
            elif shard in live:
                self._send_peer(shard, splice)

    def _on_span_splice(self, src: ClientId, splice: SpanSplice) -> None:
        """Splice a sequenced spanning action into the local stream at
        the next position, pre-validated (the sequencer's gsn order
        admits it; Information Bound geometry does not apply)."""
        action = splice.action
        if action.action_id in self.span_gsns:
            return  # duplicate splice from a failover re-forward
        if splice.owner in self._dead_shards:
            # Spliced while the owner crashed (broadcast in flight):
            # its result can never arrive, so never enqueue it (the
            # takeover abort only sweeps entries spliced *before* the
            # crash notice).
            return
        entry = QueueEntry(self._next_pos, action, arrived_at=self.sim.now)
        entry.span = True
        entry.span_owner = splice.owner == self.shard_index
        entry.span_owner_shard = splice.owner
        entry.gsn = splice.gsn
        entry.span_involved = splice.involved
        entry.valid = True
        self._next_pos += 1
        self._entries.append(entry)
        self._writer_index.note_enqueued(entry.pos, action.writes)
        self.stats.actions_serialized += 1
        self.shard_stats.spans_spliced += 1
        if self._validated_upto == entry.pos - 1:
            # Contiguous with the validation frontier: distributable now
            # (otherwise the next validation tick's frontier walk passes
            # over the pre-set verdict).
            self._validated_upto = entry.pos
        self._span_entries[action.action_id] = entry.pos
        self.span_gsns[action.action_id] = splice.gsn
        self.lease.observe_gsn(splice.gsn)
        self._note_stream_high()
        self.host.execute(self.costs.timestamp_ms, lambda: None)
        if self._obs is not None:
            self._obs.on_shard_splice(
                self.sim.now, self.shard_index, splice.gsn, entry.pos
            )
        if entry.span_owner:
            self._unspliced.pop(action.action_id, None)
            originator = action.client_id
            remaining = self._outstanding_spans.get(originator, 0) - 1
            if remaining > 0:
                self._outstanding_spans[originator] = remaining
            else:
                self._outstanding_spans.pop(originator, None)
                self._drain_held(originator)

    # ------------------------------------------------------------------
    # The sequencer moved or came back (docs/control_plane.md)
    # ------------------------------------------------------------------
    def _sequencer_moved(self) -> None:
        """The gsn lease changed hands (the lease's ``on_moved``): adopt
        the controller role if it came here, then re-drive whatever the
        old holder died holding."""
        if self.elastic is not None and self.lease.is_holder:
            # Adopt the controller role mid-drain: the pending version
            # is whatever epoch is still open locally (updates are
            # broadcast all-or-nothing, so every survivor agrees).
            self._pending_version = max(
                (epoch["version"] for epoch in self._epochs), default=None
            )
            self._drain_done = set()
        self._redrive_holder()

    def _redrive_holder(self) -> None:
        """Re-send what the previous holder (or the holder's previous
        incarnation) never answered: span forwards whose splice never
        came back, and the DrainDones it had collected."""
        for message in list(self._unspliced.values()):
            self._to_holder(message)
        for epoch in self._epochs:
            epoch["drained"] = False
        self._maybe_drain_done()

    # ------------------------------------------------------------------
    # Crash fault tolerance: shard death and restart
    # ------------------------------------------------------------------
    def note_shard_down(self, shard: int) -> None:
        """Crash-oracle notification: ``shard``'s host died.

        Survivors adopt the dead shard's span obligations — peer
        entries whose owner can no longer relay a result are aborted
        (the takeover-abort; local holders of the value entry never
        saw the action's code, so aborting is always safe) — and the
        elastic drain barrier shrinks to the survivor quorum."""
        self._dead_shards.add(shard)
        aborted = False
        for entry in self._entries:
            if (
                entry.span
                and not entry.span_owner
                and entry.span_owner_shard == shard
                and entry.span_result is None
                and entry.completion is None
                and entry.valid is True
            ):
                self._drop(entry)
                self.stats.orphans_aborted += 1
                aborted = True
        if aborted:
            self._advance_frontier()
        if self.elastic is not None and self.lease.is_holder:
            self._check_drain_commit()

    def resume(self, dead_shards, load_round: int) -> None:
        """Continue the crashed incarnation this server replaces, from
        its recovery log and what the survivors know: never reuse a
        stream position or gsn it may have issued, know who else is
        down, and join the survivors' load round."""
        recovery = self.recovery
        self._next_pos = self._base_pos = recovery.next_pos
        self._validated_upto = recovery.next_pos - 1
        self.lease.resume(recovery.next_gsn, recovery.max_gsn)
        self._dead_shards.update(dead_shards)
        self.load_round = load_round

    def announce_restart(self) -> None:
        """Broadcast the restart hello to every live peer."""
        self._broadcast(ShardHello(self.shard_index))

    def _on_shard_hello(self, src: ClientId, hello: ShardHello) -> None:
        """A crashed shard restarted (recovered from checkpoint+WAL):
        clear it from the dead set and replay whatever state it needs
        to rejoin the protocol."""
        self._dead_shards.discard(hello.shard)
        if hello.shard == self.lease.holder:
            # The sequencer came back still holding the lease (it
            # restarted before a survivor's check took the lease over).
            self._redrive_holder()
        if self.lease.is_holder:
            self.lease.catch_up(hello.shard)
            if self.elastic is not None and self.partition.version > 0:
                # Partition catch-up: an update/commit pair brings the
                # restarted shard (whose copy restarted at version 0)
                # to the current boundaries without a drain barrier.
                update = PartitionUpdate(
                    self.partition.version, tuple(self.partition.boundaries)
                )
                self._send_peer(hello.shard, update)
                self._send_peer(hello.shard, PartitionCommit(update.version))

    def _on_client_hello(self, src: ClientId, hello: ClientHello) -> None:
        """A reconnecting client asked to attach here (the K > 1
        rejoin path).  Idempotent: hello retries and handoff races
        resolve to re-welcomes."""
        if hello.client_id not in self.clients:
            self.attach_client(
                hello.client_id,
                radius=hello.radius,
                interests=hello.interests,
            )
        self.send(hello.client_id, HandoffWelcome(self.shard_index, ()))

    # ------------------------------------------------------------------
    # Result distribution
    # ------------------------------------------------------------------
    def _record_completion(self, src: ClientId, message: Completion) -> None:
        # Cheat screen *before* the span-result relay: a lying result
        # must not be broadcast to peer shards.  The screen is pure on
        # accept, so the base class screening it again is harmless.
        if self.detector is not None and self._screen_completion(src, message):
            return
        # Owner side: the originator's completion doubles as the span's
        # committed result; relay it to the involved peers before the
        # frontier (possibly) pops the entry.
        index = message.pos - self._base_pos
        if 0 <= index < len(self._entries):
            entry = self._entries[index]
            if (
                entry.span
                and entry.span_owner
                and entry.span_result is None
                and entry.action.action_id == message.action_id
            ):
                entry.span_result = message.result
                self._tell_involved(
                    entry,
                    SpanResult(entry.gsn, entry.action.action_id, message.result),
                )
        super()._record_completion(src, message)

    def _tell_involved(self, entry: QueueEntry, message: object) -> None:
        """Owner side: send a span's fate to the other involved shards."""
        for shard in entry.span_involved:
            if shard != self.shard_index:
                self._send_peer(shard, message)

    def _on_span_result(self, src: ClientId, message: SpanResult) -> None:
        """Peer side: record the committed result of a spliced spanning
        action — unblocking value-entry distribution and the commit
        frontier."""
        pos = self._span_entries.get(message.action_id)
        if pos is None or pos < self._base_pos:
            return  # already resolved (e.g. aborted) — nothing to do
        entry = self._entries[pos - self._base_pos]
        if entry.span_result is not None:
            return
        entry.span_result = message.result
        entry.record_completion(message.result, src)
        self._advance_frontier()

    def _on_span_abort(self, src: ClientId, message: SpanAbort) -> None:
        """Peer side: the owner aborted a spanning action; drop our
        spliced entry so the frontier can pass it."""
        pos = self._span_entries.get(message.action_id)
        if pos is None or pos < self._base_pos:
            return
        entry = self._entries[pos - self._base_pos]
        if entry.completion is not None:
            return  # result won the race; the abort is stale
        self._drop(entry)
        self._advance_frontier()

    def _wire_action(self, client_id: ClientId, entry: QueueEntry) -> Action:
        if entry.span and entry.action.client_id != client_id:
            # Value entry: everyone but the originator receives the
            # committed result, not the code (only the originator ever
            # evaluates a spanning action).
            assert entry.span_result is not None, "span closures defer until known"
            return BlindWrite(
                entry.action.action_id,
                entry.span_result.values(),
                origin=entry.action.action_id,
            )
        return entry.action

    # ------------------------------------------------------------------
    # Orphan aborts (owner decides for spanning actions)
    # ------------------------------------------------------------------
    def _abort_orphan(self, entry: QueueEntry) -> bool:
        if entry.span and not entry.span_owner:
            return False  # only the owner may abort a spanning action
        super()._abort_orphan(entry)
        if entry.span:
            self._tell_involved(entry, SpanAbort(entry.gsn, entry.action.action_id))
        return True

    # ------------------------------------------------------------------
    # Submission / resolution tracking (the handoff barrier)
    # ------------------------------------------------------------------
    def _note_submission(self, src: ClientId, action: Action) -> None:
        self._unresolved.setdefault(src, set()).add(action.action_id)
        if len(self._involved_shards(action)) > 1:
            self._queued_spans.add(action.action_id)

    def _forget_submission(self, src: ClientId, action: Action) -> None:
        bucket = self._unresolved.get(src)
        if bucket is not None:
            bucket.discard(action.action_id)
            if not bucket:
                del self._unresolved[src]

    def _note_resolved(self, entry: QueueEntry) -> None:
        action_id = entry.action.action_id
        self._span_entries.pop(action_id, None)
        client_id = entry.action.client_id
        bucket = self._unresolved.get(client_id)
        if bucket is not None:
            bucket.discard(action_id)
            if not bucket:
                del self._unresolved[client_id]
        if client_id in self.clients:
            self._resolved_log.setdefault(client_id, []).append(action_id)
        if client_id in self._handoffs:
            self._maybe_finalize(client_id)
        if (
            self.elastic is not None
            and entry.valid is not False
            and entry.completion is not None
        ):
            # Last-writer stamps for region syncs: spanning writes are
            # ordered by gsn on every involved shard; a local write
            # after the last span strictly supersedes it (and can only
            # exist on the territory's owner).
            if entry.span:
                for oid in sorted(entry.completion.written_ids()):
                    self._sync_stamps[oid] = (entry.gsn, 0)
            else:
                for oid in sorted(entry.completion.written_ids()):
                    prev = self._sync_stamps.get(oid, (-1, 0))
                    self._sync_stamps[oid] = (prev[0], 1)

    def _advance_frontier(self) -> None:
        super()._advance_frontier()
        if self._epochs:
            # Commits merged above may have pushed _base_pos past an
            # epoch fence; syncs must read the post-merge store, so the
            # fence check runs after the whole frontier walk.
            self._maybe_fence()

    # ------------------------------------------------------------------
    # Handoff state machine (owner side)
    # ------------------------------------------------------------------
    def _note_position_change(self, entry: QueueEntry) -> None:
        super()._note_position_change(entry)
        if self.partition.shards == 1:
            return
        client_id = entry.action.client_id
        record = self.clients.get(client_id)
        if record is None or client_id in self._handoffs:
            return
        avatar_oid = self.avatar_of(client_id)
        if avatar_oid is None or avatar_oid not in entry.action.writes:
            return
        position = self._client_position(client_id)
        if position is None:
            return
        target = self.partition.home_with_hysteresis(
            position.x, self.shard_index, self.handoff_margin
        )
        if target != self.shard_index and target not in self._dead_shards:
            self._begin_handoff(client_id, target)

    def _begin_handoff(self, client_id: ClientId, target: int) -> None:
        self._handoffs[client_id] = {"target": target, "ready": False}
        self.shard_stats.handoffs_out += 1
        if self._obs is not None:
            self._obs.on_shard_handoff(
                self.sim.now, client_id, self.shard_index, target, "prepare"
            )
        self.send(client_id, HandoffPrepare(target))

    def _on_handoff_ready(self, src: ClientId, message: HandoffReady) -> None:
        state = self._handoffs.get(message.client_id)
        if state is None:
            return  # client evicted or handoff cancelled meanwhile
        state["ready"] = True
        self._maybe_finalize(message.client_id)

    def _maybe_finalize(self, client_id: ClientId) -> None:
        """Complete the handoff once the barrier holds: the client has
        acknowledged (its FIFO uplink is drained into us) and every one
        of its accepted submissions has resolved — including parked and
        span-forwarded ones, which stay unresolved until they commit."""
        state = self._handoffs.get(client_id)
        if state and state["ready"] and not self._unresolved.get(client_id):
            self._finalize_handoff(client_id, state["target"])

    def _finalize_handoff(self, client_id: ClientId, target: int) -> None:
        if target in self._dead_shards:
            # The gaining shard died while the handoff drained: keep
            # the client — re-welcome it onto our own stream (same-src
            # welcomes do not switch streams client-side).
            self._end_handoff(client_id)
            self.send(client_id, HandoffWelcome(self.shard_index, ()))
            return
        if any(not epoch["synced"] for epoch in self._epochs):
            # A rebalance fence is still draining: park the transfer so
            # the region syncs reach the gaining shards first (FIFO
            # backbone ⇒ the adopter's store is fresh before adoption).
            if client_id not in self._parked_transfers:
                self._parked_transfers.append(client_id)
            return
        record = self.clients[client_id]
        resolved = tuple(self._resolved_log.get(client_id, ()))
        transfer = HandoffTransfer(client_id, record.radius, record.interests, resolved)
        self.detach_client(client_id)
        if self._obs is not None:
            self._obs.on_shard_handoff(
                self.sim.now, client_id, self.shard_index, target, "transfer"
            )
        self._send_peer(target, transfer)

    def _end_handoff(self, client_id: ClientId) -> None:
        """The one place a handoff ends — its transfer left, its client
        was detached, or its gaining shard died: forget it, and let the
        epochs that were waiting on it as a bulk handoff re-check their
        drain (a gone client must not wedge the barrier)."""
        self._handoffs.pop(client_id, None)
        if client_id in self._parked_transfers:
            self._parked_transfers.remove(client_id)
        waiting = [epoch for epoch in self._epochs if client_id in epoch["bulk"]]
        for epoch in waiting:
            epoch["bulk"].discard(client_id)
        if waiting:
            self._maybe_drain_done()

    def _on_handoff_transfer(self, src: ClientId, message: HandoffTransfer) -> None:
        """Adopt a migrating client and welcome it onto our stream."""
        self.attach_client(
            message.client_id,
            radius=message.radius,
            interests=message.interests,
        )
        # The handoff barrier guarantees every action this client ever
        # submitted committed on its previous shard before the transfer
        # — and committing needed the client's own completion, so the
        # client has stably applied all of them.  Its span entries still
        # uncommitted *here* must not be redelivered (the client, as
        # originator, would receive the real action and re-evaluate it,
        # diverging from the committed result): mark them sent, so
        # closures subtract their writes instead of pushing them.
        for entry in self._entries:
            if (
                entry.valid is not False
                and entry.action.client_id == message.client_id
            ):
                entry.sent.add(message.client_id)
        self._park_epoch += 1
        self.shard_stats.handoffs_in += 1
        if self._obs is not None:
            self._obs.on_shard_handoff(
                self.sim.now, message.client_id, self.shard_index, self.shard_index,
                "adopt",
            )
        self.send(message.client_id, HandoffWelcome(self.shard_index, message.resolved))
        if self.elastic is not None and self.partition.shards > 1:
            # Chained migration: a rebalance may have re-homed this
            # client while its transfer was in flight, making us a
            # stale target.  Forward it on (the Prepare follows the
            # Welcome on the same FIFO downlink, so the client finishes
            # this migration before parking for the next).
            position = self._client_position(message.client_id)
            if position is not None:
                target = self.partition.home_with_hysteresis(
                    position.x, self.shard_index, self.handoff_margin
                )
                if target != self.shard_index and target not in self._dead_shards:
                    self._begin_handoff(message.client_id, target)

    def detach_client(self, client_id: ClientId) -> None:
        super().detach_client(client_id)
        self._held.pop(client_id, None)
        self._outstanding_spans.pop(client_id, None)
        self._unresolved.pop(client_id, None)
        self._resolved_log.pop(client_id, None)
        self._end_handoff(client_id)

    # ------------------------------------------------------------------
    # Elastic rebalancing (docs/elasticity.md).  Dormant unless the
    # deployment passes an ElasticConfig; every method below is only
    # reachable from the load tick or an elastic control message.
    # ------------------------------------------------------------------
    def start(self, *, stop_at: Optional[TimeMs] = None) -> None:
        super().start(stop_at=stop_at)
        if self.elastic is not None and self.partition.shards > 1:
            self._stoppers.append(
                self.sim.call_every(
                    self.elastic.interval_ms, self._elastic_tick, stop_at=stop_at
                )
            )
        for period_ms, tick in self.lease.start():
            self._stoppers.append(
                self.sim.call_every(period_ms, tick, stop_at=stop_at)
            )

    def _elastic_tick(self) -> None:
        """Report the load accumulated since the previous tick to the
        controller (the lease holder)."""
        cpu = self.host.cpu_time_used
        serialized = self.stats.actions_serialized
        report = LoadReport(
            self.shard_index,
            self.load_round,
            cpu - self._last_cpu_ms,
            serialized - self._last_serialized,
            len(self.clients),
        )
        self.load_round += 1
        self._last_cpu_ms = cpu
        self._last_serialized = serialized
        self._to_holder(report)

    def _on_load_report(self, src: ClientId, report: LoadReport) -> None:
        """Controller: collect one round of per-shard samples; track
        the imbalance streak; fire a rebalance past the hysteresis."""
        bucket = self._load_reports.setdefault(report.round, {})
        bucket[report.shard] = report
        if len(bucket) < self.partition.shards:
            return
        del self._load_reports[report.round]
        shards = self.partition.shards
        loads = [bucket[k].cpu_ms for k in range(shards)]
        if sum(loads) <= 0.0:
            # Fixed-cost deployments can run with zero modelled server
            # cpu; fall back to the serialization counters.
            loads = [float(bucket[k].serialized) for k in range(shards)]
        total = sum(loads)
        if total <= 0.0:
            self._imbalance_streak = 0
            return
        imbalance = max(loads) * shards / total
        if imbalance < self.elastic.threshold:
            self._imbalance_streak = 0
            return
        self._imbalance_streak += 1
        if self._imbalance_streak < self.elastic.hysteresis:
            return
        if self._pending_version is not None:
            return  # one rebalance in flight at a time
        self._imbalance_streak = 0
        self._start_rebalance(loads, imbalance)

    def _start_rebalance(self, loads: List[float], imbalance: float) -> None:
        bounds = [self.partition.bounds(k) for k in range(self.partition.shards)]
        cuts = plan_boundaries(
            loads, bounds, self.partition.world_width, self._min_stripe
        )
        if all(
            abs(new - old) < 1e-9
            for new, old in zip(cuts, self.partition.boundaries)
        ):
            return  # as balanced as the planner can make it
        version = self.partition.version + 1
        self._pending_version = version
        self._drain_done = set()
        self.rebalance_log.append(
            {
                "version": version,
                "at_ms": self.sim.now,
                "imbalance": imbalance,
                "boundaries": tuple(cuts),
            }
        )
        update = PartitionUpdate(version, tuple(cuts))
        self._broadcast(update)
        self._on_partition_update(self.server_id, update)

    def _on_partition_update(self, src: ClientId, update: PartitionUpdate) -> None:
        """Every shard: flip the partition copy, open an epoch with a
        fence at the current queue position, and begin bulk handoffs
        for every client this shard no longer owns."""
        partition = self.partition
        if update.version <= partition.version:
            return  # defensive: the backbone is reliable and FIFO
        old = RegionPartition(partition.world_width, partition.shards, partition.boundaries)
        partition.apply(update.version, update.boundaries)
        epoch = {
            "version": update.version,
            "fence": self._next_pos,
            "old": old,
            "synced": False,
            "drained": False,
            "bulk": set(),
        }
        self._epochs.append(epoch)
        for client_id in sorted(self.clients):
            if client_id in self._handoffs:
                continue  # already migrating; adoption re-checks its home
            position = self._client_position(client_id)
            if position is None:
                continue
            target = self.partition.home_with_hysteresis(
                position.x, self.shard_index, self.handoff_margin
            )
            if target != self.shard_index and target not in self._dead_shards:
                epoch["bulk"].add(client_id)
                self.shard_stats.bulk_handoffs += 1
                self._begin_handoff(client_id, target)
        self._maybe_fence()

    def _maybe_fence(self) -> None:
        """Once the commit frontier passes an epoch's fence, everything
        serialized under the old boundaries has resolved: send the
        region syncs, then release any parked handoff transfers."""
        for epoch in self._epochs:
            if not epoch["synced"] and self._base_pos >= epoch["fence"]:
                self._send_region_syncs(epoch)
                epoch["synced"] = True
        if self._parked_transfers and not any(
            not epoch["synced"] for epoch in self._epochs
        ):
            parked, self._parked_transfers = self._parked_transfers, []
            for client_id in parked:
                state = self._handoffs.get(client_id)
                if state is not None:
                    self._finalize_handoff(client_id, state["target"])
        self._maybe_drain_done()

    def _send_region_syncs(self, epoch: dict) -> None:
        """Losing side: ship the committed values of every written
        object in each transferred interval to its gaining shard."""
        old_lo, old_hi = epoch["old"].bounds(self.shard_index)
        for shard in self._live_peers():
            new_lo, new_hi = self.partition.bounds(shard)
            lo = max(old_lo, new_lo)
            hi = min(old_hi, new_hi)
            if lo >= hi:
                continue
            entries = []
            for oid in sorted(self.state.ids()):
                if self.state.version(oid) <= 1:
                    continue  # still the seeded initial value everywhere
                obj = self.state.get(oid)
                if "x" not in obj:
                    continue
                x = float(obj["x"])
                if not lo <= x < hi:
                    continue
                gsn, local = self._sync_stamps.get(oid, (-1, 0))
                entries.append(
                    (oid, gsn, local, tuple(sorted(obj.as_dict().items())))
                )
            if not entries:
                continue
            self._send_peer(shard, RegionSync(epoch["version"], lo, hi, tuple(entries)))

    def _on_region_sync(self, src: ClientId, sync: RegionSync) -> None:
        """Gaining side: adopt strictly-newer values.  A span this
        shard committed after the loser stamped the sync loses the
        stamp comparison, so a racing sync never regresses the store."""
        updates = {}
        for oid, gsn, local, attrs in sync.entries:
            if (gsn, local) <= self._sync_stamps.get(oid, (-1, 0)):
                continue
            self._sync_stamps[oid] = (gsn, local)
            updates[oid] = dict(attrs)
        if updates:
            self.state.merge(updates, commit_index=-1)
            self._refresh_indexed_positions(updates)

    def _maybe_drain_done(self) -> None:
        """An epoch is drained here once its fence passed (syncs sent)
        and every bulk-handoff transfer left; tell the controller."""
        for epoch in list(self._epochs):
            if epoch["synced"] and not epoch["drained"] and not epoch["bulk"]:
                epoch["drained"] = True
                self._to_holder(DrainDone(self.shard_index, epoch["version"]))

    def _on_drain_done(self, src: ClientId, done: DrainDone) -> None:
        """Controller: after every live shard drained, commit the
        version so every shard retires the superseded boundaries."""
        if self._pending_version is None and self.lease.is_holder:
            # A controller that took over mid-drain (lease failover or
            # sequencer restart) adopts the version the survivors are
            # still draining; unreachable fault-free — the controller
            # that started a rebalance is the one collecting its dones.
            self._pending_version = done.version
            self._drain_done = set()
        if done.version != self._pending_version:
            return
        self._drain_done.add(done.shard)
        self._check_drain_commit()

    def _check_drain_commit(self) -> None:
        """Commit the pending version once the drain quorum — every
        shard not known dead — has reported; re-checked when a shard
        dies so a crash mid-drain cannot wedge the epoch."""
        if self._pending_version is None:
            return
        needed = set(range(self.partition.shards)) - self._dead_shards
        if not needed.issubset(self._drain_done):
            return
        version = self._pending_version
        self._pending_version = None
        self._drain_done = set()
        self.shard_stats.rebalances += 1
        commit = PartitionCommit(version)
        self._broadcast(commit)
        self._on_partition_commit(self.server_id, commit)

    def _on_partition_commit(self, src: ClientId, commit: PartitionCommit) -> None:
        self._epochs = [
            epoch for epoch in self._epochs if epoch["version"] != commit.version
        ]

    def quiescent(self) -> bool:
        """Nothing left to drain here: no handoff under way, no action
        uncommitted, no rebalance epoch open and — on the lease holder,
        which is the controller — no partition version awaiting its
        drain quorum."""
        return not (
            self._handoffs
            or self._entries
            or self._epochs
            or (self.lease.is_holder and self._pending_version is not None)
        )

    def speaks_unprompted(self) -> bool:
        """Whether this shard may put a message on the backbone before
        a trigger (:meth:`ShardedSeveEngine.backbone_trigger`) reaches
        it: while a client that acknowledged its handoff waits for its
        transfer, while a spanning submission waits on the host, and
        always when it runs something that speaks at will."""
        return self._speaks_at_will or bool(self._queued_spans) or any(
            state["ready"] for state in self._handoffs.values()
        )

    @property
    def stripe(self) -> Tuple[float, float]:
        """This shard's own view of the ``(lo, hi)`` stripe it owns."""
        return self.partition.bounds(self.shard_index)

    @property
    def failover_log(self) -> List[FailoverEvent]:
        """Completed lease transfers this shard won."""
        return self.lease.log

    def __repr__(self) -> str:
        return (
            f"ShardServer(shard={self.shard_index}, "
            f"committed={self.stats.actions_committed}, "
            f"live={len(self._entries)}, clients={len(self.clients)})"
        )


class ShardedSeveEngine(SeveEngine):
    """A SEVE deployment over K shard servers.

    Each shard runs on its own simulated :class:`Host` with its own
    :class:`VersionedStore` replica and distribution indexes; shards
    exchange spanning actions, results, and handoffs over fault-free
    FIFO backbone links.  Clients attach to the shard owning their
    spawn position and migrate as their avatars cross stripe borders.

    ``shards=1`` is byte-identical to :class:`SeveEngine`.
    """

    def __init__(
        self,
        world,
        num_clients: int,
        config: Optional[SeveConfig] = None,
        *,
        sharding: Optional[ShardingConfig] = None,
        interests: Optional[Dict[ClientId, frozenset]] = None,
    ) -> None:
        self.sharding = sharding or ShardingConfig()
        self._num_clients = num_clients
        super().__init__(world, num_clients, config, interests=interests)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _build_server(self) -> None:
        config = self.config
        shards = self.sharding.shards
        # Backbone links are created lazily by the network on first
        # server-to-server send; setting the latency here (before any
        # shard exists) covers them all.
        self.network.server_link_latency_ms = config.backbone_latency_ms
        if config.mode not in ("seve", "first-bound"):
            raise ConfigurationError(
                f"sharded deployments support the push modes "
                f"('seve', 'first-bound'); got {config.mode!r}"
            )
        self._elastic = self.sharding.elastic if shards > 1 else None
        #: Shards currently down (crash oracle's view).
        self.crashed_shards: set = set()
        #: Per-shard checkpoint+WAL logs; armed only when the plan
        #: schedules shard crashes (zero overhead otherwise).  The same
        #: fact arms lease failover: a lease whose holder can die must
        #: be able to move, one whose holder cannot stays pinned.
        self._recovery_logs: Dict[int, ShardRecoveryLog] = {}
        self._arm_recovery = bool(config.fault_plan and config.fault_plan.shard_crashes)
        #: The shards this engine instance drives: all of them, unless
        #: a partition replica narrows the slice (see ``owned_clients``).
        self.owned_shards: List[int] = list(range(shards))
        # Every shard keeps its own partition copy; under elastic the
        # copies flip independently as the PartitionUpdate reaches each
        # shard (docs/elasticity.md).  The engine's copy is shard 0's.
        self.partition = RegionPartition(self.sharding.world_width, shards)
        self.predicate = self._make_predicate()
        max_client_radius = 0.0
        for client_id in range(self._num_clients):
            max_client_radius = max(
                max_client_radius, self.world.client_radius(client_id)
            )
        #: Extra classification radius added to an action's own
        #: influence radius when deciding which shards it spans; wide
        #: enough that no client of an uninvolved shard can pass the
        #: Equation (1) predicate for the action.
        self.span_slack = (
            self.predicate.reach + max_client_radius + self.sharding.handoff_margin
        )
        #: The static stripes and the spanning submissions sent so far:
        #: what :meth:`backbone_trigger` classifies by.
        self._stripes = RegionPartition(self.sharding.world_width, shards)
        self._spanning_ids: set = set()

        self.shard_servers: List[ShardServer] = []
        self.shard_states: List[VersionedStore] = []
        self.info_bounds: List[Optional[InformationBound]] = []
        self.audits: list = []
        for shard in range(shards):
            host_id = shard_host_id(shard)
            if shard == 0:
                host = self.server_host  # shard 0 reuses the base host
            else:
                self.network.add_server(host_id)
                host = Host(self.sim, host_id, obs=self.obs)
            self.server_hosts[shard] = host
            state = VersionedStore(self.world.initial_objects())
            info_bound = self._make_info_bound()
            recovery = None
            if self._arm_recovery:
                recovery = ShardRecoveryLog(state, clock=lambda: self.sim.now)
                self._recovery_logs[shard] = recovery
            server = self._make_shard_server(shard, host, state, info_bound, recovery)
            self.shard_servers.append(server)
            self.shard_states.append(state)
            self.info_bounds.append(info_bound)
        self.server = self.shard_servers[0]
        self.state = self.shard_states[0]
        self.info_bound = self.info_bounds[0]
        self.audit = None
        if config.enable_audit:
            self.audits = [self._make_audit() for _ in self.shard_servers]
            self.audit = self.audits[0]
        self._install_commit_hooks()

    def _make_shard_server(
        self, shard, host, state, info_bound, recovery
    ) -> ShardServer:
        config = self.config
        return ShardServer(
            self.sim,
            self.network,
            host,
            state,
            shard_index=shard,
            partition=self.partition
            if shard == 0
            else RegionPartition(self.sharding.world_width, self.sharding.shards),
            span_slack=self.span_slack,
            handoff_margin=self.sharding.handoff_margin,
            predicate=self.predicate,
            info_bound=info_bound,
            tick_ms=config.tick_ms,
            costs=config.costs,
            avatar_of=self.world.avatar_of,
            liveness=config.liveness,
            server_id=shard_host_id(shard),
            obs=self.obs,
            detector=self.detector,
            elastic=self._elastic,
            control=ControlPlaneConfig() if self._arm_recovery else PINNED_LEASE,
            recovery=recovery,
        )

    def _install_commit_hooks(self) -> None:
        """(Re)wire each live server's commit hook: the audit record
        plus, when crash recovery is armed, the WAL append."""
        for shard, server in enumerate(self.shard_servers):
            hooks = [self._make_audit_hook(self.audits[shard])] if self.audits else []
            if server.recovery is not None:
                hooks.append(server.recovery.on_commit)
            if len(hooks) > 1:
                server.on_commit = self._chain_hooks(tuple(hooks))
            elif hooks:
                server.on_commit = hooks[0]

    @staticmethod
    def _chain_hooks(hooks):
        def chained(pos, client_id, values):
            for hook in hooks:
                hook(pos, client_id, values)

        return chained

    def _home_server(self, client_id: ClientId):
        shard = self.home_shard(client_id)
        return self.shard_servers[shard], shard_host_id(shard)

    def home_shard(self, client_id: ClientId) -> int:
        """The shard owning the client's initial avatar position."""
        avatar_oid = self.world.avatar_of(client_id)
        if avatar_oid is None or avatar_oid not in self.state:
            return 0
        obj = self.state.get(avatar_oid)
        if "x" not in obj:
            return 0
        return self.partition.shard_of(float(obj["x"]))

    def _client_config(self, client_id, interests):
        config = super()._client_config(client_id, interests)
        if self.sharding.shards > 1:
            # Cross-shard handoff legitimately re-delivers: a client
            # returning to a shard may be pushed entries it already
            # holds, and echoes can be superseded by Welcome-resolved
            # retirement.  Positional dedup handles both.
            config.strict_stream = False
        return config

    # ------------------------------------------------------------------
    # Crash oracle: shard death, restart, client rejoin
    # (docs/control_plane.md).  Every partition replica applies every
    # window at the same virtual instant: the effects its slice owns
    # for real, the rest only as far as keeps ``crashed_shards`` and
    # the network's incarnation counters in lockstep.  Failover, span
    # takeover and the eviction of another partition's casualties travel
    # as ordinary protocol messages.
    # ------------------------------------------------------------------
    def _live_shards(self) -> List[int]:
        return [
            shard
            for shard in range(self.sharding.shards)
            if shard not in self.crashed_shards
        ]

    def _live_owned_servers(self) -> List[ShardServer]:
        return [
            self.shard_servers[shard]
            for shard in self.owned_shards
            if shard not in self.crashed_shards
        ]

    def crash_shard(self, shard: int) -> List[ClientId]:
        """Kill shard ``shard``'s host: park its server, notify the
        owned survivors (the simulation's perfect failure detector), and
        return the owned casualty clients — those attached there or
        migrating toward it — which die with it.  (A plan that would
        take the last live shard down is rejected with the run's
        settings: ``validate_crash_windows``.)"""
        if shard in self.crashed_shards:
            raise ProtocolError(f"shard {shard} is already crashed")
        if shard in self.owned_shards:
            self.shard_servers[shard].crash()
        self.crashed_shards.add(shard)
        self.network.crash(shard_host_id(shard))
        survivors = self._live_owned_servers()
        for peer in survivors:
            peer.note_shard_down(shard)
        casualties = self._shard_crash_victims(shard)
        for client_id in casualties:
            self.mark_dead(client_id)
            if self.network.is_registered(client_id):
                self.network.crash(client_id)
        # A casualty still attached to a shard of another partition is
        # evicted there by the liveness sweep once its heartbeats stop.
        for client_id in casualties:
            for peer in survivors:
                if client_id in peer.clients:
                    peer.evict_client(client_id)
        self._redirect_rejoins(shard)
        return casualties

    def _shard_crash_victims(self, shard: int) -> List[ClientId]:
        """The owned clients that die with shard ``shard``: attached to
        it, or mid-migration toward it (their stream is unrecoverable —
        the transfer may already be in flight into the dead host).  The
        rule is client-local on purpose: a replica's copy of another
        partition's client is stale, so each client's owner decides."""
        host_id = shard_host_id(shard)
        victims = []
        for client_id in self.owned_clients:
            if client_id in self.dead:
                continue
            client = self.clients[client_id]
            if client.server_id == host_id or (
                client._migrating and client._migration_target == shard
            ):
                victims.append(client_id)
        return victims

    def _redirect_rejoins(self, shard: int) -> None:
        """Owned clients rejoining toward the shard that just died hello
        the first live shard instead."""
        host_id = shard_host_id(shard)
        live = self._live_shards()
        for client_id in self.owned_clients:
            if client_id in self.dead:
                continue
            client = self.clients[client_id]
            if client._rejoin_target == host_id and live:
                client._rejoin_target = shard_host_id(live[0])

    def restart_shard(self, shard: int) -> None:
        """Restart a crashed shard host: recover the committed store
        from checkpoint+WAL, seed the stream/gsn counters past the dead
        incarnation's high-water, and hello the survivors."""
        if shard not in self.crashed_shards:
            raise ProtocolError(f"shard {shard} is not crashed")
        if shard not in self.owned_shards:
            # Another partition restarts it for real; here the dormant
            # stand-in is unparked so sends stamp the incarnation the
            # replacement server answers to.
            self.network.reconnect(shard_host_id(shard))
            self.crashed_shards.discard(shard)
            return
        recovery = self._recovery_logs[shard]
        self.network.revive(shard_host_id(shard))
        state = VersionedStore(self.world.initial_objects())
        recovered = recovery.recover()
        updates = {}
        for oid in sorted(recovered.ids()):
            attrs = dict(recovered.get(oid).as_dict())
            if oid in state and dict(state.get(oid).as_dict()) == attrs:
                continue  # still the seeded initial value
            updates[oid] = attrs
        if updates:
            state.merge(updates, commit_index=-1)
        info_bound = self._make_info_bound()
        server = self._make_shard_server(
            shard, self.server_hosts[shard], state, info_bound, recovery
        )
        # Round counters are per-tick; joining at the survivors' round
        # lets load rounds complete again (the harness oracle, like the
        # crash notice itself).
        server.resume(
            self.crashed_shards - {shard},
            max(self.shard_servers[k].load_round for k in self._live_shards()),
        )
        self.shard_servers[shard] = server
        self.shard_states[shard] = state
        self.info_bounds[shard] = info_bound
        if shard == 0:
            self.server = server
            self.state = state
            self.info_bound = info_bound
        self._install_commit_hooks()
        self.crashed_shards.discard(shard)
        server.start(stop_at=self._stop_at)
        server.announce_restart()

    def mark_alive(self, client_id: ClientId) -> None:
        """Reconnect a crashed client.  At K > 1 the single-server
        oracle re-attach is wrong (the right shard is a protocol
        question), so its owner rejoins it via ClientHello instead."""
        if self.sharding.shards == 1:
            super().mark_alive(client_id)
            return
        self.dead.discard(client_id)
        if client_id not in self.owned_clients:
            return
        if self.config.liveness is not None:
            self._install_heartbeat(client_id)
        current = self.shard_of_client(client_id)
        if current is not None and current not in self.crashed_shards:
            # Reconnected before the liveness sweep: the shard's sent
            # marks are stale (pushes into the crash window died on the
            # wire), so evict first — the rejoin rebuilds from scratch.
            self.shard_servers[current].evict_client(client_id)
        target = self.home_shard(client_id)
        if target in self.crashed_shards:
            target = self._live_shards()[0]
        self.clients[client_id].rejoin(
            shard_host_id(target), radius=self.world.client_radius(client_id)
        )

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def _servers(self) -> List[ShardServer]:
        return self.shard_servers

    def _driven_servers(self) -> List[ShardServer]:
        return [self.shard_servers[shard] for shard in self.owned_shards]

    def _quiescent(self) -> bool:
        return self.slice_quiescent() and self.elastic_balance() == 0

    def slice_quiescent(self) -> bool:
        """Whether the owned slice has nothing left to drain.  The whole
        deployment is quiescent once every slice is and the slices'
        :meth:`elastic_balance` values sum to zero."""
        for client_id in self.owned_clients:
            if client_id in self.dead or client_id in self.quarantined:
                continue  # crashed/evicted mid-flight; nothing to drain
            client = self.clients[client_id]
            if client.pending_count or client._migrating:
                return False
        servers = self._live_owned_servers()
        if self.config.liveness is not None and any(
            not self.dead.isdisjoint(server.clients) for server in servers
        ):
            # A crashed client still attached keeps the run live until
            # the shard's sweep presumes it dead (Section III-C).
            return False
        return all(server.quiescent() for server in servers)

    def backbone_trigger(self, dst: ClientId, payload: object) -> bool:
        """Whether delivering ``payload`` to shard host ``dst`` can make
        that shard speak on the backbone — a *trigger*
        (docs/parallel.md): a submission whose disc, span slack
        included, crosses a static stripe border, the originator's
        completion of one, a span forward, a splice at its owner, or a
        handoff acknowledgement.  A pure function of the payload, the
        destination and the static stripes (a completion's by way of its
        originator's own submission, which the same partition sent), so
        every partition classifies a message alike."""
        kind = type(payload)
        if kind is SubmitAction:
            action = payload.action
            if action.position is not None:
                x, reach = action.position.x, action.radius + self.span_slack
                if len(self._stripes.shards_touching(x, reach)) == 1:
                    return False
            self._spanning_ids.add(action.action_id)
            return True
        if kind is Completion:
            action_id = payload.action_id
            own = payload.reporter == action_id.client_id
            return own and action_id in self._spanning_ids
        if kind is SpanSplice:
            return dst == shard_host_id(payload.owner)
        return kind is SpanForward or kind is HandoffReady

    def elastic_balance(self) -> int:
        """Elastic control messages the owned shards sent minus those
        they consumed (reports, updates, syncs, drain/commit).  One in
        flight between two slices is invisible to both slices' local
        predicates, so quiescence needs global conservation.  Zero when
        shard crash windows are armed: a shard host can then eat a
        control message by dying with it, and a restarted shard's
        counters reset."""
        if self._elastic is None or self._arm_recovery:
            return 0
        return sum(
            self.shard_servers[shard].elastic_sent
            - self.shard_servers[shard].elastic_received
            for shard in self.owned_shards
        )

    # ------------------------------------------------------------------
    # Results: the measured surface, where sharding makes it real.  These
    # (and the inherited rules) read only ``shard_servers`` rows —
    # ``clients``, ``stats``, ``shard_stats``, ``span_gsns``, ``stripe``,
    # ``rebalance_log``, ``failover_log`` —, ``server_hosts`` rows,
    # ``clients``, ``shard_states``, ``dead`` and ``quarantined``, so
    # :class:`repro.net.backend.MergedRun` applies the same rules to the
    # rows the partitions snapshot.
    # ------------------------------------------------------------------
    @property
    def shard_rows(self) -> list:
        """One summary row per shard: committed/serialized counts, the
        cross-shard message counters and the shard host's CPU time."""
        return [
            {
                "shard": server.shard_index,
                "clients": len(server.clients),
                "serialized": server.stats.actions_serialized,
                "committed": server.stats.actions_committed,
                "spans_forwarded": server.shard_stats.spans_forwarded,
                "spans_spliced": server.shard_stats.spans_spliced,
                "handoffs_out": server.shard_stats.handoffs_out,
                "handoffs_in": server.shard_stats.handoffs_in,
                "cpu_ms": self.server_hosts[server.shard_index].cpu_time_used,
                "push_cycles": server.stats.push_cycles,
                "stripe": server.stripe,
            }
            for server in self.shard_servers
        ]

    def consistency_report(self, replicas):
        """Shard stores legitimately diverge on each other's local
        actions, so Theorem 1 is checked against any-shard history plus
        the global span-order audit — over the live clients, whatever
        population ``replicas`` names."""
        audit = audit_sharded_run(self)
        return audit.replica_report, audit

    @property
    def failover_events(self) -> tuple:
        """Completed lease transfers, across every shard's log."""
        events = []
        for server in self.shard_servers:
            events.extend(server.failover_log)
        return tuple(sorted(events, key=lambda e: (e.at_ms, e.term)))

    @property
    def rebalance_events(self) -> tuple:
        """Controller-side log of committed partition changes (merged
        across servers: failovers can move the controller mid-run)."""
        merged = []
        seen = set()
        for server in self.shard_servers:
            for event in server.rebalance_log:
                if event["version"] not in seen:
                    seen.add(event["version"])
                    merged.append(event)
        return tuple(sorted(merged, key=lambda event: event["version"]))

    def stripe_bounds(self) -> tuple:
        """Each shard's own view of its stripe ``(lo, hi)``."""
        return tuple(server.stripe for server in self.shard_servers)

    def shard_of_client(self, client_id: ClientId) -> Optional[int]:
        """The shard a client is currently attached to (None mid-flight)."""
        for server in self.shard_servers:
            if client_id in server.clients:
                return server.shard_index
        return None

    def span_gsn_map(self) -> Dict[ActionId, int]:
        """Union of every shard's gsn assignments (audit input)."""
        merged: Dict[ActionId, int] = {}
        for server in self.shard_servers:
            merged.update(server.span_gsns)
        return merged

    def __repr__(self) -> str:
        return (
            f"ShardedSeveEngine(shards={self.sharding.shards}, "
            f"mode={self.config.mode!r}, clients={len(self.clients)}, "
            f"t={self.sim.now:.0f}ms)"
        )
