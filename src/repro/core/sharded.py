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
the common case, and the source of the K-way scaling.  *Spanning
actions* — whose disc crosses a stripe border — are forwarded to the
sequencer, given a global sequence number and spliced into the stream
of every involved shard.  Forwarding, sequencing, splicing, who
evaluates a span and the relay of its result or abort are
:class:`repro.core.spans.SpanPipeline`, a transport-free unit each
shard server hosts.

*Handoff* — when a client's committed avatar position leaves its
shard's stripe by more than a hysteresis margin, the owner initiates a
migration: the client parks new submissions and acknowledges over its
FIFO uplink (proving the shard holds everything it ever sent); once
every one of the client's actions has resolved the owner transfers the
subscription over the backbone, and the new shard adopts and welcomes
the client, which atomically switches streams.  Resolved-action ids
ride along so the client can retire pending entries whose echoes died
with the old stream.  The barrier — open handoffs, per-client
unresolved and resolved ids, transfers parked behind a rebalance fence,
and the handoff and rejoin handlers, which take the client from the
message's sender — is :class:`repro.core.handoff.HandoffBarrier`, a
transport-free unit each shard server hosts and calls at the events it
follows.

A deployment has at least two shards: one serializer is the classic
:class:`~repro.core.engine.SeveEngine`, which the harness builds for
``--shards 1``.

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
cuts of every copy under a new version.  The rebalancer's whole epoch
machine — load rounds, controller, fences, region syncs, drain barrier
— is :class:`repro.core.elastic.Rebalancer`, which each shard server
hosts beside its lease and calls at the events it follows; it sees the
server only through a :class:`ShardView`, which it shares with the
handoff barrier and the span pipeline.

*The peer seam* — every message a shard server receives passes its
crash guard, then the shell's one dispatcher and the ``HANDLERS`` table
(with the lease's, the span pipeline's, the rebalancer's and the
handoff barrier's tables merged in); every message it sends a peer
goes through ``_send_peer``, ``_broadcast`` or ``_to_holder``.
Conservation-group messages are counted there and nowhere else
(docs/sharding.md).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.action import Action, ActionId
from repro.core.chassis import bound_handlers
from repro.core.closure import QueueEntry
from repro.core.control_plane import FailoverEvent, GsnLease
from repro.core.elastic import ElasticConfig, Rebalancer
from repro.core.engine import SeveConfig, SeveEngine
from repro.core.handoff import HANDOFF_MARGIN, HandoffBarrier
from repro.core.info_bound import InformationBound
from repro.core.messages import (
    CONSERVATION_GROUPS,
    Completion,
    HandoffReady,
    ShardHello,
    SpanForward,
    SpanSplice,
    SubmitAction,
)
from repro.core.server_incomplete import IncompleteWorldServer
from repro.core.spans import SpanPipeline
from repro.errors import ConfigurationError, ProtocolError
from repro.metrics.shard_audit import audit_sharded_run
from repro.net.host import Host
from repro.state.checkpoint import ShardRecoveryLog
from repro.state.versioned import VersionedStore
from repro.types import ClientId, TimeMs, shard_host_id

#: Messages whose spec says ``group="elastic"`` (the one conservation
#: group): counted once on each side of a shard server's message seam
#: (docs/sharding.md).
COUNTED_MESSAGES = frozenset(CONSERVATION_GROUPS["elastic"])


@dataclass(frozen=True)
class ShardingConfig:
    """Parameters of a sharded deployment."""

    #: Number of shard servers (vertical stripes of the world).
    shards: int = 2
    #: Width of the world's x extent; stripes partition [0, world_width).
    world_width: float = 1000.0
    #: Elastic rebalancer knobs (docs/elasticity.md).  ``None`` (the
    #: default) keeps the static equal-width stripes and leaves every
    #: elastic code path dormant — byte-identical to a deployment
    #: without the rebalancer.
    elastic: Optional[ElasticConfig] = None

    def __post_init__(self) -> None:
        if self.shards < 2:
            raise ConfigurationError(
                f"a sharded deployment needs shards >= 2, got {self.shards}"
            )
        if self.world_width <= 0:
            raise ConfigurationError(
                f"world_width must be positive, got {self.world_width}"
            )


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
    #: Clients this shard detached and handed to their gaining shard.
    handoff_transfers: int = 0
    #: Spanning actions sequenced by this shard (sequencer only).
    spans_sequenced: int = 0
    #: Rebalances committed (controller only; docs/elasticity.md).
    rebalances: int = 0
    #: Clients bulk-handed-off because a rebalance moved their stripe.
    bulk_handoffs: int = 0


class ShardView:
    """What a shard server shows its transport-free units — the
    :class:`~repro.core.elastic.Rebalancer`, the
    :class:`~repro.core.handoff.HandoffBarrier` and the
    :class:`~repro.core.spans.SpanPipeline`, which share one: a narrow
    view, never the server itself (each unit lists what it reads).
    Each attribute is read from the server at the moment the unit
    asks."""

    __slots__ = ("_server",)

    def __init__(self, server: "ShardServer") -> None:
        self._server = server

    shard_index = property(attrgetter("_server.shard_index"))
    partition = property(attrgetter("_server.partition"))
    dead = property(attrgetter("_server._dead_shards"))
    is_holder = property(attrgetter("_server.lease.is_holder"))
    next_pos = property(attrgetter("_server._next_pos"))
    base_pos = property(attrgetter("_server._base_pos"))
    store = property(attrgetter("_server.state"))
    clients = property(attrgetter("_server.clients"))
    cpu_ms = property(attrgetter("_server.host.cpu_time_used"))
    serialized = property(attrgetter("_server.stats.actions_serialized"))
    stats = property(attrgetter("_server.shard_stats"))
    now = property(attrgetter("_server.sim.now"))
    sim = property(attrgetter("_server.sim"))
    rebalancer = property(attrgetter("_server.rebalancer"))
    handoff = property(attrgetter("_server.handoff"))
    send = property(attrgetter("_server.send"))
    send_peer = property(attrgetter("_server._send_peer"))
    broadcast = property(attrgetter("_server._broadcast"))
    to_holder = property(attrgetter("_server._to_holder"))
    position = property(attrgetter("_server._client_position"))
    attach = property(attrgetter("_server.attach_client"))
    adopt = property(attrgetter("_server._adopt"))
    detach = property(attrgetter("_server.detach_client"))
    breach = property(attrgetter("_server.breach"))
    refresh = property(attrgetter("_server._refresh_indexed_positions"))
    lease = property(attrgetter("_server.lease"))
    speaks_at_will = property(attrgetter("_server._speaks_at_will"))
    host = property(attrgetter("_server.host"))
    recovery = property(attrgetter("_server.recovery"))
    entries = property(attrgetter("_server._entries"))
    writer_index = property(attrgetter("_server._writer_index"))
    avatar_owner = property(attrgetter("_server._avatar_owner"))
    admit = property(attrgetter("_server._admit_local"))
    enqueue = property(attrgetter("_server._enqueue"))
    drop = property(attrgetter("_server._drop"))
    advance = property(attrgetter("_server._advance_frontier"))


class ShardServer(IncompleteWorldServer):
    """One shard: a full Incomplete World server over one world stripe.

    Extends the base server with the peer seam, shard crash takeover
    and handoff adoption; hosts four transport-free units it calls at
    the events they follow: the gsn lease, the
    :class:`~repro.core.spans.SpanPipeline`, the elastic
    :class:`~repro.core.elastic.Rebalancer` and the client
    :class:`~repro.core.handoff.HandoffBarrier` (the last three see the
    server through one :class:`ShardView`).
    """

    def __init__(
        self,
        *args,
        shard_index: int,
        partition: RegionPartition,
        span_slack: float = 0.0,
        elastic: Optional[ElasticConfig] = None,
        recovery: Optional[ShardRecoveryLog] = None,
        **kwargs,
    ) -> None:
        self.shard_index = shard_index
        self.partition = partition
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
        #: The holder is the sequencer — it assigns every gsn — and runs
        #: the elastic controller.  It can move on a run whose shards
        #: keep recovery logs: one that crashes a shard.
        self.lease = GsnLease(
            shard_index,
            self.partition.shards,
            recovery is not None,
            send_peer=self._send_peer,
            broadcast=self._broadcast,
            now=lambda: self.sim.now,
            dead=self._dead_shards,
            on_moved=self._sequencer_moved,
        )
        #: Set by :meth:`crash`: this shard's host died.
        self._crashed = False
        #: :data:`COUNTED_MESSAGES` that crossed this server's seam, out
        #: and in.  Quiescence requires the sums over all shards to
        #: match, so that none is still in flight.
        self.elastic_sent = 0
        self.elastic_received = 0
        super().__init__(*args, **kwargs)
        if recovery is not None:
            self.on_commit = recovery.on_commit
        #: This shard's ends of the span pipeline, the elastic rebalancer
        #: (inert without an ElasticConfig) and the client handoff; all
        #: three see the server through one narrow view.
        view = ShardView(self)
        self.spans = SpanPipeline(view, span_slack)
        self.rebalancer = Rebalancer(elastic, view, span_slack)
        self.handoff = HandoffBarrier(view, HANDOFF_MARGIN)
        for unit in (self.lease, self.spans, self.rebalancer, self.handoff):
            self._handlers.update(bound_handlers(unit))
        #: This shard runs something that can put a message on the
        #: backbone at any event: the elastic controller, a cheat
        #: quarantine (an eviction can abort a span), or anything a
        #: fault plan arms — an ARQ receiver (a gap can hold back a
        #: trigger and release it on a later packet), a liveness sweep,
        #: a lease that can move.
        self._speaks_at_will = (
            self.network.faults is not None
            or elastic is not None
            or self.detector is not None
        )

    # ------------------------------------------------------------------
    # The peer seam (docs/sharding.md): the dispatch table, and the
    # three ways a message leaves for another shard
    # ------------------------------------------------------------------
    #: The base server's three plus the restart hello; the four lease,
    #: four span, five elastic and three handoff messages are the
    #: units' own (``GsnLease.HANDLERS``, ``SpanPipeline.HANDLERS``,
    #: ``Rebalancer.HANDLERS``, ``HandoffBarrier.HANDLERS``, merged in
    #: per instance).
    HANDLERS = {
        **IncompleteWorldServer.HANDLERS,
        ShardHello: "_on_shard_hello",
    }

    def crash(self) -> None:
        """This shard's host died: it handles nothing from now on."""
        self._crashed = True
        self.stop()

    def _on_message(self, src: ClientId, payload: object) -> None:
        """The crash guard and the inbound count, then the shell's
        dispatcher."""
        if self._crashed:
            return  # a crashed server handles nothing
        if type(payload) in COUNTED_MESSAGES:
            self.elastic_received += 1
        super()._on_message(src, payload)

    def _send_peer(self, shard: int, message: object) -> None:
        """Send ``message`` to shard ``shard`` over the backbone.  A
        conservation-group message is counted here — and never sent to
        a shard known dead, where nothing could count it back in."""
        if type(message) in COUNTED_MESSAGES:
            if shard in self._dead_shards:
                return
            self.elastic_sent += 1
        self.send(shard_host_id(shard), message)

    def _broadcast(self, message: object) -> None:
        """Send ``message`` to every live peer."""
        for shard in range(self.partition.shards):
            if shard != self.shard_index and shard not in self._dead_shards:
                self._send_peer(shard, message)

    def _to_holder(self, message: object) -> None:
        """Hand ``message`` to the lease holder — the sequencer and
        elastic controller: a local call when that is this shard."""
        if self.lease.is_holder:
            self._handlers[type(message)](self.server_id, message)
        else:
            self._send_peer(self.lease.holder, message)

    # ------------------------------------------------------------------
    # Admission: the span pipeline classifies, holds back and forwards
    # ------------------------------------------------------------------
    #: The base admission (timestamp and enqueue), which the span
    #: pipeline calls for a local action.
    _admit_local = IncompleteWorldServer._admit

    def _admit(self, src: ClientId, action: Action) -> None:
        self.spans.admit(src, action)

    def _enqueue(self, action: Action, valid: bool) -> QueueEntry:
        entry = super()._enqueue(action, valid)
        if self.recovery is not None:
            # A restarted incarnation never re-issues an admitted position.
            self.recovery.note_stream(entry.pos)
        return entry

    # ------------------------------------------------------------------
    # The sequencer moved or came back (docs/control_plane.md)
    # ------------------------------------------------------------------
    def _sequencer_moved(self) -> None:
        """The gsn lease changed hands (the lease's ``on_moved``): adopt
        the controller role if it came here, then re-drive whatever the
        old holder died holding."""
        self.rebalancer.adopt()
        self._redrive_holder()

    def _redrive_holder(self) -> None:
        """Re-send what the previous holder (or the holder's previous
        incarnation) never answered: span forwards whose splice never
        came back, and the DrainDones it had collected."""
        self.spans.redrive()
        self.rebalancer.redrive()

    # ------------------------------------------------------------------
    # Crash fault tolerance: shard death and restart
    # ------------------------------------------------------------------
    def note_shard_down(self, shard: int) -> None:
        """Crash-oracle notification: ``shard``'s host died.

        Survivors adopt the dead shard's span obligations — peer
        entries whose owner can no longer relay a result are aborted
        (the takeover-abort; local holders of the value entry never
        saw the action's code, so aborting is always safe: a run with
        a shard crash speaks at will, so no peer sends a span's code)
        — and the elastic drain barrier shrinks to the survivor
        quorum."""
        self._dead_shards.add(shard)
        aborted = False
        for entry in self._entries:
            unresolved = entry.completion is None and entry.valid is True
            if entry.span_owner_shard == shard and unresolved:
                aborted = super()._abort_orphan(entry)
        if aborted:
            self._advance_frontier()
        self.rebalancer.shard_down()

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
        self.rebalancer.load_round = load_round

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
            self.rebalancer.catch_up(hello.shard)

    # ------------------------------------------------------------------
    # The events the span pipeline follows
    # ------------------------------------------------------------------
    def _note_completion(self, entry: QueueEntry, message: Completion) -> None:
        # It passed the cheat screen first, so a lying result is never
        # relayed.
        self.spans.completed(entry, message.result)

    def _abort_orphan(self, entry: QueueEntry) -> bool:
        return self.spans.orphaned(entry) and super()._abort_orphan(entry)

    # ------------------------------------------------------------------
    # The events the units follow
    # ------------------------------------------------------------------
    def _note_submission(self, src: ClientId, action: Action) -> None:
        self.handoff.submitted(src, action.action_id)
        self.spans.submitted(action)

    def _note_resolved(self, entry: QueueEntry) -> None:
        self.spans.resolved(entry)
        self.handoff.resolved(entry.action.client_id, entry.action.action_id)
        self.rebalancer.note_resolved(entry)

    def _advance_frontier(self) -> None:
        super()._advance_frontier()
        if self.rebalancer.epochs:
            # Commits merged above may have pushed _base_pos past an
            # epoch fence; syncs must read the post-merge store, so the
            # fence check runs after the whole frontier walk.
            self.rebalancer.fence()

    def _note_position_change(self, entry: QueueEntry) -> None:
        if super()._note_position_change(entry):
            self.handoff.rehome(entry.action.client_id)

    def _adopt(self, client_id: ClientId, radius: float, interests) -> None:
        """Attach a client handed over by another shard.  The barrier
        guarantees every action it ever submitted committed on its
        previous shard before the transfer — and committing needed the
        client's own completion, so the client has stably applied all
        of them.  Its span entries still uncommitted *here* must not be
        redelivered (they carry its own action ids, so the client would
        take them for echoes of actions it already settled): mark them
        sent, so closures subtract their writes instead of pushing them.
        Its avatar's value here may predate writes this stream never
        saw: the stamp goes dirty until one of its writers commits."""
        self.attach_client(client_id, radius=radius, interests=interests)
        self.rebalancer.mark_dirty(self.avatar_of(client_id))
        for entry in self._entries:
            if entry.valid is not False and entry.action.client_id == client_id:
                entry.sent.add(client_id)

    def detach_client(self, client_id: ClientId) -> None:
        super().detach_client(client_id)
        self.spans.detached(client_id)
        self.handoff.detached(client_id)

    def start(self, *, stop_at: Optional[TimeMs] = None) -> None:
        super().start(stop_at=stop_at)
        for period_ms, tick in self.rebalancer.start() + self.lease.start():
            self._stoppers.append(self.sim.call_every(period_ms, tick, stop_at=stop_at))

    def quiescent(self) -> bool:
        """Nothing left to drain here: no action uncommitted, and the
        handoff barrier and the rebalancer quiescent."""
        units = (self.handoff, self.rebalancer)
        return not self._entries and all(unit.quiescent() for unit in units)

    def speaks_unprompted(self) -> bool:
        """Whether this shard may put a message on the backbone before
        a trigger (:meth:`ShardedSeveEngine.backbone_trigger`) reaches
        it: while a client that acknowledged its handoff waits for its
        transfer, while a spanning submission waits on the host, and
        always when it runs something that speaks at will."""
        return self._speaks_at_will or bool(self.spans.queued) or self.handoff.speaks_unprompted()

    @property
    def stripe(self) -> Tuple[float, float]:
        """This shard's own view of the ``(lo, hi)`` stripe it owns."""
        return self.partition.bounds(self.shard_index)

    @property
    def failover_log(self) -> List[FailoverEvent]:
        """Completed lease transfers this shard won."""
        return self.lease.log

    @property
    def rebalance_log(self) -> List[dict]:
        """Rebalances this shard's controller started."""
        return self.rebalancer.rebalance_log

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

    ``owned_shards`` (all of them by default) is the slice this instance
    builds and drives — a partition replica's (:mod:`repro.net.backend`).
    Only an owned shard gets a server, host, store and Information
    Bound, and only a client homed on one gets a protocol client, host
    and stores.  Every other shard and client is an *address stub*: a
    registered network address with no object behind it, so routing
    and the crash windows' incarnation counters work as for a built
    host, while every message to it leaves for the partition owning it.

    One shard is :class:`SeveEngine` itself: :class:`ShardingConfig`
    asks for at least two.
    """

    def __init__(
        self,
        world,
        num_clients: int,
        config: Optional[SeveConfig] = None,
        *,
        sharding: Optional[ShardingConfig] = None,
        interests: Optional[Dict[ClientId, frozenset]] = None,
        owned_shards: Optional[Sequence[int]] = None,
    ) -> None:
        self.sharding = sharding or ShardingConfig()
        self._num_clients = num_clients
        #: The shards this engine instance builds and drives, in order.
        self.owned_shards: List[int] = sorted(
            range(self.sharding.shards) if owned_shards is None else owned_shards
        )
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
        #: Shards currently down (crash oracle's view).
        self.crashed_shards: set = set()
        #: Per-shard checkpoint+WAL logs; armed only when the plan
        #: schedules shard crashes (``shard_failover``, zero overhead
        #: otherwise).  The same fact arms lease failover: a lease whose
        #: holder can die must be able to move, one whose holder cannot
        #: stays pinned.
        self._recovery_logs: Dict[int, ShardRecoveryLog] = {}
        # Every shard keeps its own partition copy; under elastic the
        # copies flip independently as the PartitionUpdate reaches each
        # shard (docs/elasticity.md).  The engine's copy is shard 0's.
        self.partition = RegionPartition(self.sharding.world_width, shards)
        self.predicate = self._make_predicate()
        max_client_radius = max(
            (self.world.client_radius(client) for client in range(self._num_clients)),
            default=0.0,
        )
        #: Extra classification radius added to an action's own
        #: influence radius when deciding which shards it spans; wide
        #: enough that no client of an uninvolved shard can pass the
        #: Equation (1) predicate for the action.
        self.span_slack = (
            self.predicate.reach + max_client_radius + HANDOFF_MARGIN
        )
        #: The static stripes and the spanning submissions sent so far:
        #: what :meth:`backbone_trigger` classifies by.
        self._stripes = RegionPartition(self.sharding.world_width, shards)
        self._spanning_ids: set = set()

        #: Per shard index: its server, store and Information Bound —
        #: ``None`` for a shard another partition owns, whose host is an
        #: address stub here.
        self.shard_servers: List[Optional[ShardServer]] = [None] * shards
        self.shard_states: List[Optional[VersionedStore]] = [None] * shards
        self.info_bounds: List[Optional[InformationBound]] = [None] * shards
        self.server_hosts: Dict[int, Host] = {}
        for shard in range(shards):
            host_id = shard_host_id(shard)
            self.network.add_server(host_id)
            if shard not in self.owned_shards:
                self.network.register_stub(host_id)
                continue
            # Shard 0 reuses the base host.
            host = self.server_host if shard == 0 else Host(self.sim, host_id)
            self.server_hosts[shard] = host
            state = VersionedStore(self.world.initial_objects())
            info_bound = self._make_info_bound()
            recovery = None
            if self.shard_failover:
                recovery = ShardRecoveryLog(state)
                self._recovery_logs[shard] = recovery
            self.shard_servers[shard] = self._make_shard_server(
                shard, host, state, info_bound, recovery
            )
            self.shard_states[shard] = state
            self.info_bounds[shard] = info_bound
        self.server = self.shard_servers[0]
        self.state = self.shard_states[0]
        self.info_bound = self.info_bounds[0]
        #: Each client's home shard: the stripe of its avatar's initial
        #: position, which every partition reads alike.
        seeds = self._seed_store()
        self._homes = [
            self._initial_home(seeds, client_id) for client_id in range(self._num_clients)
        ]

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
            predicate=self.predicate,
            info_bound=info_bound,
            tick_ms=config.tick_ms,
            avatar_of=self.world.avatar_of,
            server_id=shard_host_id(shard),
            detector=self.detector,
            elastic=self.sharding.elastic,
            recovery=recovery,
        )

    def _seed_store(self) -> VersionedStore:
        # Every shard store holds the world's initial objects until the
        # run starts, and a partition holds only its own shards' stores.
        return self.shard_states[self.owned_shards[0]]

    def _initial_home(self, seeds: VersionedStore, client_id: ClientId) -> int:
        avatar_oid = self.world.avatar_of(client_id)
        obj = seeds.get(avatar_oid) if avatar_oid in seeds else {}
        return self._stripes.shard_of(float(obj["x"])) if "x" in obj else 0

    def _attach_client(self, client_id: ClientId, interests) -> None:
        """Build an owned client; register any other as an address stub."""
        if self._homes[client_id] in self.owned_shards:
            super()._attach_client(client_id, interests)
        else:
            self.network.register_stub(client_id)

    def _home_server(self, client_id: ClientId):
        shard = self.home_shard(client_id)
        return self.shard_servers[shard], shard_host_id(shard)

    def home_shard(self, client_id: ClientId) -> int:
        """The shard owning the client's initial avatar position."""
        return self._homes[client_id]

    def _client_config(self, client_id, interests):
        config = super()._client_config(client_id, interests)
        # Cross-shard handoff legitimately re-delivers: a client
        # returning to a shard may be pushed entries it already holds,
        # and echoes can be superseded by Welcome-resolved retirement.
        # Positional dedup handles both.
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
            # Another partition restarts it for real; here the address
            # stub is unparked so sends stamp the incarnation the
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
        rounds = [peer.rebalancer.load_round for peer in self._live_owned_servers()]
        server.resume(self.crashed_shards - {shard}, max(rounds, default=0))
        self.shard_servers[shard] = server
        self.shard_states[shard] = state
        self.info_bounds[shard] = info_bound
        if shard == 0:
            self.server = server
            self.state = state
            self.info_bound = info_bound
        self.crashed_shards.discard(shard)
        server.start(stop_at=self._stop_at)
        server.announce_restart()

    def mark_alive(self, client_id: ClientId) -> None:
        """Reconnect a crashed client.  At K > 1 the single-server
        oracle re-attach is wrong (the right shard is a protocol
        question), so its owner rejoins it via ClientHello instead."""
        if not self._revive(client_id):
            return
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
        return [server for server in self.shard_servers if server is not None]

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
        if any(server.awaiting_eviction(self.dead) for server in servers):
            # A crashed client still attached keeps the run live until
            # the shard's sweep presumes it dead (Section III-C).
            return False
        return all(server.quiescent() for server in servers)

    def backbone_trigger(self, dst: ClientId, payload: object) -> bool:
        """Whether delivering ``payload`` to shard host ``dst`` can make
        that shard speak on the backbone — a *trigger*
        (docs/parallel.md): a submission whose disc, span slack
        included, crosses a static stripe border, a completion of one
        (any completion under fault tolerance, when an owner client's
        report may carry the result), a span forward, a splice at its
        owner, or a handoff acknowledgement.  A pure function of the
        payload, the destination and the run settings (a completion's
        by way of its originator's own submission, which the same
        partition sent), so every partition classifies a message
        alike."""
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
            return self.fault_tolerant or payload.action_id in self._spanning_ids
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
        if self.sharding.elastic is None or self.shard_failover:
            return 0
        return sum(
            self.shard_servers[shard].elastic_sent
            - self.shard_servers[shard].elastic_received
            for shard in self.owned_shards
        )

    # ------------------------------------------------------------------
    # Results: the measured surface, where sharding makes it real.  These
    # (and the inherited rules) read only ``_servers()`` rows —
    # ``clients``, ``stats``, ``shard_stats``, ``spans.gsns``, ``stripe``,
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
            for server in self._servers()
        ]

    def consistency_report(self, client_ids):
        """Shard stores legitimately diverge on each other's local
        actions, so Theorem 1 is checked against any-shard history plus
        the global span-order audit — over the live clients, whatever
        population ``client_ids`` names."""
        audit = audit_sharded_run(self)
        return audit.replica_report, audit

    @property
    def failover_events(self) -> tuple:
        """Completed lease transfers, across every shard's log."""
        events = []
        for server in self._servers():
            events.extend(server.failover_log)
        return tuple(sorted(events, key=lambda e: (e.at_ms, e.term)))

    @property
    def rebalance_events(self) -> tuple:
        """Controller-side log of committed partition changes (merged
        across servers: failovers can move the controller mid-run)."""
        merged = []
        seen = set()
        for server in self._servers():
            for event in server.rebalance_log:
                if event["version"] not in seen:
                    seen.add(event["version"])
                    merged.append(event)
        return tuple(sorted(merged, key=lambda event: event["version"]))

    def shard_of_client(self, client_id: ClientId) -> Optional[int]:
        """The shard a client is currently attached to (None mid-flight)."""
        for server in self._servers():
            if client_id in server.clients:
                return server.shard_index
        return None

    def span_gsn_map(self) -> Dict[ActionId, int]:
        """Union of every shard's gsn assignments (audit input)."""
        merged: Dict[ActionId, int] = {}
        for server in self._servers():
            merged.update(server.spans.gsns)
        return merged

    def __repr__(self) -> str:
        return (
            f"ShardedSeveEngine(shards={self.sharding.shards}, "
            f"mode={self.config.mode!r}, clients={len(self.clients)}, "
            f"t={self.sim.now:.0f}ms)"
        )
