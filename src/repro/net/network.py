"""Star-topology network connecting clients to the central server.

Every architecture in the paper is client–server, so the network is a
star: each client has an uplink to and a downlink from the server.  The
:class:`Network` owns the links, meters all traffic, and dispatches
delivered payloads to per-host handler callbacks.

Payloads are ordinary Python objects (the protocol message dataclasses in
:mod:`repro.core.messages`); their simulated wire size is supplied by the
sender, which keeps the wire format decoupled from the Python object
model.

Fault injection and reliability
-------------------------------
When built with a :class:`~repro.net.faults.FaultInjector` the network
consults it once per message: the message may be dropped, delayed by
extra jitter, or delivered twice.  An injector also arms a
selective-repeat ARQ *below* the handler layer — per-(src, dst)
sequence numbers, cumulative ACKs, retransmission timers with capped
exponential backoff — restoring reliable FIFO delivery over the lossy
plan for every architecture without protocol changes.  Neither feature
costs anything when absent: with no injector, ``send`` takes exactly the pre-fault code path (the differential tests in
``tests/test_fault_differential.py`` pin this down).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.errors import NetworkError
from repro.net.faults import FaultInjector
from repro.net.link import Link
from repro.net.simulator import Event, Simulator
from repro.net.stats import TrafficMeter
from repro.types import SERVER_ID, ClientId, TimeMs

#: Handler invoked on message arrival: ``handler(src, payload)``.
Handler = Callable[[ClientId, object], None]

#: One message on its way: ``(src, dst, payload, size_bytes,
#: incarnation, dropped)`` — everything its arrival event needs.
_Delivery = Tuple[ClientId, ClientId, object, int, int, bool]


def _stub(src: ClientId, payload: object) -> None:
    """The handler of an address stub: the partition diverts every
    message to it, so none can arrive."""
    raise NetworkError(f"a {type(payload).__name__} from {src} reached an address stub")


#: Simulated overhead bytes per ARQ data packet / per ACK.
_HEADER_BYTES = 8
_ACK_BYTES = 8
#: Growth of a channel's retransmit timeout per retry, and its cap as a
#: multiple of the initial timeout.
_RTO_BACKOFF = 2.0
_RTO_CAP = 8.0
#: Retransmissions of one packet before the sender gives up on it (the
#: receiver is told to advance past the abandoned sequence).
_ARQ_MAX_RETRIES = 10


@dataclass
class _Packet:
    """ARQ data packet: a payload under a per-channel sequence number.

    ``base`` piggybacks the sender's oldest unacknowledged sequence so
    the receiver can advance past packets the sender abandoned.  A
    ``seq`` of -1 carries no payload at all — it is a pure base-advance
    notification sent when the sender gives up on a packet.
    """

    seq: int
    base: int
    payload: object


@dataclass
class _Ack:
    """Cumulative acknowledgement: everything ``<= upto`` arrived."""

    upto: int


@dataclass
class _SenderChannel:
    """Per-(src, dst) ARQ sender state."""

    next_seq: int = 0
    #: seq -> [payload, size_bytes, retries]; insertion order == seq order.
    unacked: Dict[int, list] = field(default_factory=dict)
    rto_ms: TimeMs = 0.0
    timer: Optional[Event] = None


@dataclass
class _ReceiverChannel:
    """Per-(src, dst) ARQ receiver state."""

    expected: int = 0
    #: Out-of-order packets parked until the gap fills.
    buffer: Dict[int, object] = field(default_factory=dict)


class Network:
    """Latency/bandwidth-modelled star network with traffic metering."""

    def __init__(
        self,
        sim: Simulator,
        *,
        rtt_ms: TimeMs,
        bandwidth_bps: Optional[float] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        """Create a network whose client<->server one-way latency is
        ``rtt_ms / 2`` (the paper assumes symmetric halves of the RTT).

        ``bandwidth_bps`` caps each client's uplink and downlink
        individually (the paper's 100 Kbps).  The server side is not the
        bottleneck: its links inherit the client cap per destination,
        which already rate-limits each downlink.

        ``faults`` injects per-message loss/jitter/duplication and
        layers the ARQ transport on top (see module docstring), its
        retransmit timeout starting at ``2 rtt + 100`` ms.
        """
        if rtt_ms < 0:
            raise NetworkError(f"RTT must be non-negative, got {rtt_ms}")
        self.sim = sim
        self.rtt_ms = rtt_ms
        self.one_way_ms = rtt_ms / 2.0
        self.bandwidth_bps = bandwidth_bps
        self.faults = faults
        #: Initial retransmit timeout of the ARQ transport; ``None``:
        #: no ARQ (the fault-free path).
        self.rto_ms: Optional[TimeMs] = (
            2.0 * rtt_ms + 100.0 if faults is not None else None
        )
        self.meter = TrafficMeter()
        self._handlers: Dict[ClientId, Handler] = {}
        self._links: Dict[Tuple[ClientId, ClientId], Link] = {}
        #: Ids treated as star hubs.  The classic topology has exactly
        #: one (:data:`SERVER_ID`); sharded deployments declare their
        #: extra serializer hosts via :meth:`add_server`.
        self._server_ids: set[ClientId] = {SERVER_ID}
        #: Every client id ever registered: each has an uplink and a
        #: downlink to every server hub, created on first use.
        self._clients: set[ClientId] = set()
        #: One-way latency of server<->server backbone links (sharded
        #: deployments).  Backbone sends bypass fault injection and the
        #: ARQ layer: shards are modelled as co-located machines on a
        #: reliable FIFO interconnect.
        self.server_link_latency_ms: TimeMs = 1.0
        #: Handlers of crashed hosts, kept so :meth:`reconnect` can
        #: restore them without the host re-registering.
        self._parked: Dict[ClientId, Handler] = {}
        #: Per-host incarnation number, bumped on reconnect.  Messages
        #: capture the destination's incarnation at send time; a message
        #: still in flight across a crash/reconnect boundary belongs to
        #: the old incarnation and is dropped on arrival (a revived host
        #: is a fresh endpoint — the old connection's traffic is dead).
        self._incarnation: Dict[ClientId, int] = {}
        self._sender_channels: Dict[Tuple[ClientId, ClientId], _SenderChannel] = {}
        self._receiver_channels: Dict[Tuple[ClientId, ClientId], _ReceiverChannel] = {}
        #: The partition replica driving this network in a windowed
        #: sharded run (:class:`repro.net.backend.PartitionReplica`),
        #: ``None`` otherwise.  It takes the last step of every send —
        #: ``partition.emit(link, record, extra_delay)`` schedules the
        #: delivery here, or diverts a message for a host another
        #: partition owns to that partition, and keeps the shards' send
        #: promises — and ``partition.check`` sees every backbone send.
        self.partition = None
        #: Schedule-perturbation hook for the race explorer
        #: (:mod:`repro.analysis.races`): ``(src, dst, payload, now) ->
        #: extra delay ms`` consulted on every raw send (the perturber
        #: filters by scope, e.g. backbone-only).  Any non-negative
        #: delay is sound — per-link FIFO survives because
        #: :meth:`Link.transmit` clamps arrivals to the link's last
        #: arrival.  ``None`` (the default) costs nothing and is
        #: byte-identical to no hook.
        self.perturb: Optional[
            Callable[[ClientId, ClientId, object, TimeMs], TimeMs]
        ] = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_server(self, server_id: ClientId) -> None:
        """Declare ``server_id`` an additional star hub (sharded
        deployments).

        Every registered client has an uplink/downlink pair to every
        declared server, and server<->server backbone links have
        ``server_link_latency_ms`` one-way latency and no bandwidth cap;
        both are created on first use (:meth:`link`).
        """
        self._server_ids.add(server_id)

    def is_server(self, host_id: ClientId) -> bool:
        """Whether ``host_id`` is a declared server hub."""
        return host_id in self._server_ids

    def register(self, host_id: ClientId, handler: Handler) -> None:
        """Attach a host and its message handler.

        A client's uplink/downlink pairs to the servers are created on
        first use and outlive a crash or unregister (with their
        counters); registering a server just records the handler.
        """
        if host_id in self._handlers:
            raise NetworkError(f"host {host_id} is already registered")
        self._parked.pop(host_id, None)
        self._handlers[host_id] = handler
        if host_id not in self._server_ids:
            self._clients.add(host_id)

    def register_stub(self, host_id: ClientId) -> None:
        """Register ``host_id`` as an *address stub*: a host another
        partition of a windowed run owns (:mod:`repro.net.backend`),
        with no object behind it here.  It crashes and reconnects like
        any host, so its incarnation stays in step with its owner's,
        and the :attr:`partition` diverts every message sent to it."""
        self.register(host_id, _stub)

    def unregister(self, host_id: ClientId) -> None:
        """Detach a host permanently (client leaves for good).

        In-flight messages to the host are cancelled on arrival —
        counted as undelivered, never handed to a handler, and their
        receive-side byte credit is taken back.
        """
        self._handlers.pop(host_id, None)
        self._parked.pop(host_id, None)
        self._teardown_channels(host_id)

    def crash(self, host_id: ClientId) -> None:
        """Simulate a host crash that may later :meth:`reconnect`.

        Like :meth:`unregister` — in-flight deliveries are cancelled,
        ARQ channels torn down — but the handler is parked so the same
        protocol endpoint can be revived in place.
        """
        handler = self._handlers.pop(host_id, None)
        if handler is not None:
            self._parked[host_id] = handler
        self._teardown_channels(host_id)

    def reconnect(self, host_id: ClientId) -> None:
        """Revive a host previously taken down by :meth:`crash`.

        ARQ channels restart from fresh sequence numbers (both sides
        were torn down at crash time, so sender and receiver agree)."""
        if host_id in self._handlers:
            raise NetworkError(f"host {host_id} is already connected")
        try:
            self._handlers[host_id] = self._parked.pop(host_id)
        except KeyError:
            raise NetworkError(f"host {host_id} never crashed; cannot reconnect") from None
        self._incarnation[host_id] = self._incarnation.get(host_id, 0) + 1

    def revive(self, host_id: ClientId) -> None:
        """Clear a crashed host's slot so a *fresh* instance can attach.

        Like :meth:`reconnect`, but for a restarted server process: the
        old protocol endpoint died with the host, and a new instance
        (recovered from checkpoint+WAL — docs/control_plane.md) takes
        over the host id.  The parked handler is discarded and the
        incarnation bumped — so deliveries aimed at the dead instance
        stay dead — but the slot is left *unregistered*: the replacement
        server registers itself during construction, exactly like the
        original did."""
        if host_id in self._handlers:
            raise NetworkError(f"host {host_id} is already connected")
        if host_id not in self._parked:
            raise NetworkError(
                f"host {host_id} never crashed; cannot revive"
            )
        del self._parked[host_id]
        self._incarnation[host_id] = self._incarnation.get(host_id, 0) + 1

    def is_registered(self, host_id: ClientId) -> bool:
        """True when ``host_id`` is currently attached (not crashed)."""
        return host_id in self._handlers

    def reset_channels(self, host_id: ClientId) -> None:
        """Abandon all ARQ state involving ``host_id``.

        Servers call this when they evict a presumed-dead client
        (Section III-C): pending retransmissions to it are pointless and
        would otherwise keep burning the wire until give-up.
        """
        self._teardown_channels(host_id)

    def _teardown_channels(self, host_id: ClientId) -> None:
        for table in (self._sender_channels, self._receiver_channels):
            for key in [k for k in table if host_id in k]:
                channel = table.pop(key)
                timer = getattr(channel, "timer", None)
                if timer is not None:
                    timer.cancel()

    @property
    def hosts(self) -> list[ClientId]:
        """Ids of all currently registered hosts."""
        return list(self._handlers)

    def link(self, src: ClientId, dst: ClientId) -> Link:
        """The directed link from ``src`` to ``dst``, created on first
        use.

        A star edge joins a registered client and a server hub (the
        client bandwidth cap; a downlink takes the server cap when there
        is one); a backbone edge joins two hubs (``server_link_latency_ms``,
        uncapped); a client <-> client *peer* link (the Section VII
        hybrid architecture's bulk traffic) joins two registered clients
        at the star latency and the client cap.  A link nobody used yet
        is idle from time 0, so creating it late gives the same arrivals
        as creating it at registration.
        """
        try:
            return self._links[(src, dst)]
        except KeyError:
            pass
        src_is_server = src in self._server_ids
        dst_is_server = dst in self._server_ids
        latency, bandwidth = self.one_way_ms, self.bandwidth_bps
        if src_is_server and dst_is_server:
            latency, bandwidth = self.server_link_latency_ms, None
        elif src_is_server or dst_is_server:
            if (dst if src_is_server else src) not in self._clients:
                raise NetworkError(f"no link {src} -> {dst}")
        elif not {src, dst} <= self._handlers.keys():
            raise NetworkError(f"no link {src} -> {dst}")
        link = self._links[(src, dst)] = Link(
            self.sim, src, dst, latency_ms=latency, bandwidth_bps=bandwidth
        )
        return link

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(
        self,
        src: ClientId,
        dst: ClientId,
        payload: object,
        size_bytes: int,
        *,
        reliable: Optional[bool] = None,
    ) -> TimeMs:
        """Send ``payload`` from ``src`` to ``dst``.

        Returns the scheduled arrival time.  The payload is handed to the
        destination handler on arrival; if the destination unregistered
        in the meantime the message is cancelled (clients can fail).
        Traffic is metered at send time — bytes hit the wire whether or
        not the receiver survives.

        With the ARQ transport armed, messages travel over it unless
        ``reliable=False`` (heartbeats opt out — a lost heartbeat
        *should* stay lost).
        """
        if src not in self._handlers:
            raise NetworkError(f"sender {src} is not registered")
        if src in self._server_ids and dst in self._server_ids:
            # Backbone traffic is reliable FIFO by construction: equal
            # link latency, no jitter, no loss — so the ARQ layer and
            # the fault injector are both bypassed.
            if self.partition is not None:
                self.partition.check(src, payload, self.sim.now)
            return self._send_raw(src, dst, payload, size_bytes, inject_faults=False)
        if self.rto_ms is not None and reliable is not False:
            return self._send_reliable(src, dst, payload, size_bytes)
        return self._send_raw(src, dst, payload, size_bytes)

    # ------------------------------------------------------------------
    # Raw (fault-injected) path
    # ------------------------------------------------------------------
    def _send_raw(
        self,
        src: ClientId,
        dst: ClientId,
        payload: object,
        size_bytes: int,
        *,
        inject_faults: bool = True,
    ) -> TimeMs:
        """The one send path: meter, draw the fault decision, perturb
        and stamp the destination's incarnation — once, whoever owns the
        destination — into one delivery record.  A dropped message is a
        record too (flagged): its arrival event charges the drop to the
        meter of whichever partition owns the destination, at the same
        instant either way; a duplicated one is two records."""
        link = self.link(src, dst)
        self.meter.record(src, dst, size_bytes)
        dropped = False
        extra_delay: TimeMs = 0.0
        duplicate = False
        if self.faults is not None and inject_faults:
            dropped, extra_delay, duplicate = self.faults.decide(
                src, dst, self.sim.now
            )
        if self.perturb is not None:
            extra_delay += self.perturb(src, dst, payload, self.sim.now)
        incarnation = self._incarnation.get(dst, 0)
        arrival = self._emit(
            link, (src, dst, payload, size_bytes, incarnation, dropped), extra_delay
        )
        if duplicate:
            # The duplicate copy occupies the wire like any message and
            # is not itself subject to further fault decisions.
            self.meter.record(src, dst, size_bytes)
            self.meter.note_duplicate()
            self._emit(
                link, (src, dst, payload, size_bytes, incarnation, False), extra_delay
            )
        return arrival

    def _emit(self, link: Link, record: _Delivery, extra_delay: TimeMs) -> TimeMs:
        """Put one delivery record on ``link``: its arrival is an event
        here — or whatever the :attr:`partition` makes of it."""
        if self.partition is not None:
            return self.partition.emit(link, record, extra_delay)
        return link.transmit(record[3], self._arrive, record, extra_delay)

    def _arrive(self, record: _Delivery) -> bool:
        """A delivery record reached its destination: the arrival event
        of every message, local (:meth:`Link.transmit`) or injected by
        the owning partition (:mod:`repro.net.backend`).  Returns
        whether a handler took it."""
        src, dst, payload, size_bytes, incarnation, dropped = record
        if dropped:
            self.meter.note_dropped(src, dst, size_bytes)
            return False
        handler = self._handlers.get(dst)
        if handler is None or incarnation != self._incarnation.get(dst, 0):
            self.meter.note_undelivered(src, dst, size_bytes)
            return False
        if isinstance(payload, _Packet):
            self._on_packet(src, dst, payload)
        elif isinstance(payload, _Ack):
            self._on_ack(src, dst, payload)
        else:
            handler(src, payload)
        return True

    # ------------------------------------------------------------------
    # Reliable (ARQ) path
    # ------------------------------------------------------------------
    def _send_reliable(
        self, src: ClientId, dst: ClientId, payload: object, size_bytes: int
    ) -> TimeMs:
        if dst in self._parked:
            # The destination is crashed: no handler, no ACKs, and a
            # reconnect restarts channels from fresh sequence numbers —
            # building retransmit state here would only burn the wire.
            return self._send_raw(src, dst, payload, size_bytes)
        key = (src, dst)
        channel = self._sender_channels.get(key)
        if channel is None:
            channel = _SenderChannel(rto_ms=self.rto_ms)
            self._sender_channels[key] = channel
        seq = channel.next_seq
        channel.next_seq += 1
        channel.unacked[seq] = [payload, size_bytes, 0]
        base = next(iter(channel.unacked))
        arrival = self._send_raw(
            src, dst, _Packet(seq, base, payload), size_bytes + _HEADER_BYTES
        )
        if channel.timer is None:
            self._arm_timer(key, channel)
        return arrival

    def _arm_timer(self, key: Tuple[ClientId, ClientId], channel: _SenderChannel) -> None:
        channel.timer = self.sim.schedule(
            channel.rto_ms, lambda: self._on_rto(key, channel)
        )

    def _on_rto(self, key: Tuple[ClientId, ClientId], channel: _SenderChannel) -> None:
        if self._sender_channels.get(key) is not channel:
            return  # channel torn down (crash) while the timer was live
        channel.timer = None
        if not channel.unacked:
            return
        src, dst = key
        head = next(iter(channel.unacked))
        entry = channel.unacked[head]
        if entry[2] >= _ARQ_MAX_RETRIES:
            # Give up: drop the packet, tell the receiver to advance its
            # window past it so later packets are not stuck behind the
            # abandoned sequence number.
            del channel.unacked[head]
            self.meter.note_abandoned()
            if self.sim.obs is not None:
                self.sim.obs.on_arq_abandoned(src, dst, self.sim.now)
            new_base = (
                next(iter(channel.unacked)) if channel.unacked else channel.next_seq
            )
            self._send_raw(src, dst, _Packet(-1, new_base, None), _HEADER_BYTES)
        else:
            entry[2] += 1
            self.meter.note_retransmit()
            if self.sim.obs is not None:
                self.sim.obs.on_arq_retransmit(src, dst, self.sim.now, head)
            base = next(iter(channel.unacked))
            self._send_raw(
                src, dst, _Packet(head, base, entry[0]), entry[1] + _HEADER_BYTES
            )
            channel.rto_ms = min(
                channel.rto_ms * _RTO_BACKOFF, _RTO_CAP * self.rto_ms
            )
        if channel.unacked:
            self._arm_timer(key, channel)

    def _on_packet(self, src: ClientId, dst: ClientId, packet: _Packet) -> None:
        key = (src, dst)
        channel = self._receiver_channels.get(key)
        if channel is None:
            channel = _ReceiverChannel()
            self._receiver_channels[key] = channel
        if packet.base > channel.expected:
            # The sender abandoned everything below ``base``; discard
            # any buffered stragglers from before the new window.
            for seq in [s for s in channel.buffer if s < packet.base]:
                del channel.buffer[seq]
            channel.expected = packet.base
        if packet.seq >= 0:
            if packet.seq < channel.expected or packet.seq in channel.buffer:
                self.meter.note_duplicate()
            else:
                channel.buffer[packet.seq] = packet.payload
        while channel.expected in channel.buffer:
            payload = channel.buffer.pop(channel.expected)
            channel.expected += 1
            handler = self._handlers.get(dst)
            if handler is not None:
                handler(src, payload)
        # Cumulative ACK (also re-ACKs duplicates, which is what lets a
        # sender whose ACK was lost stop retransmitting).
        self._send_raw(dst, src, _Ack(channel.expected - 1), _ACK_BYTES)

    def _on_ack(self, src: ClientId, dst: ClientId, ack: _Ack) -> None:
        # ``src`` sent the ACK, so the data channel runs dst -> src.
        key = (dst, src)
        channel = self._sender_channels.get(key)
        if channel is None:
            return
        progressed = False
        for seq in [s for s in channel.unacked if s <= ack.upto]:
            del channel.unacked[seq]
            progressed = True
        if not progressed:
            return
        channel.rto_ms = self.rto_ms
        if channel.timer is not None:
            channel.timer.cancel()
            channel.timer = None
        if channel.unacked:
            self._arm_timer(key, channel)
