"""The basic serializer server — Algorithm 2 of the paper.

The server's only functions are to timestamp and serialize the actions
of the clients and to manage delivery; it executes no game logic.  For
each client C it remembers ``pos_C``, the queue position of the last
action sent to C; when C submits an action, the server assigns the
action its global order number and replies with *all* actions between
``pos_C`` and the new position (so every client eventually executes
every action — the property that makes this first protocol consistent
but unscalable, Section III-A).

``eager=True`` additionally pushes each newly serialized action to all
clients immediately instead of waiting for their next submission.  That
variant is the paper's Broadcast comparison point (NPSNET/SIMNET-style
full fan-out) and is what the Figure 6/7/9 "Broadcast" series runs.

Fault tolerance (Section III-C) is the
:class:`~repro.core.chassis.ServerShell`'s: resubmissions of an
already-serialized action are absorbed idempotently by ``ActionId``,
and on a run whose fault plan crashes anything the server tracks when
it last heard from each client and evicts the silent ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import List, Set

from repro.core.action import Action
from repro.core.chassis import ServerShell, ServerStats
from repro.core.messages import ActionBatch, OrderedAction, SubmitAction
from repro.errors import ProtocolError
from repro.net.host import Host
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.types import ClientId

#: Simulated CPU cost of timestamping one action, in ms: near zero, the
#: point of the architecture being that the server runs no game logic
#: (docs/calibration.md).
TIMESTAMP_MS = 0.02


@dataclass
class BasicServerStats(ServerStats):
    """Counters for the serializer server (its front door's included)."""

    actions_serialized: int = 0
    batches_sent: int = 0
    actions_delivered: int = 0  # sum over batches of entries sent
    #: The serializer relays every action it serializes, as it stands.
    actions_relayed = property(attrgetter("actions_serialized"))


class BasicServer(ServerShell):
    """Timestamp-and-serialize server (Algorithm 2).

    Serializing one action costs :data:`TIMESTAMP_MS` of server CPU.
    Its record of an attached client C is pos_C: the index of the last
    action sent to C (-1 before anything was sent).

    It answers to the surface the engine reads every serializer through
    — the :class:`~repro.core.chassis.ServerShell`'s, plus
    ``uncommitted_count`` and ``closure_cpu_ms`` — with the values of a
    server that commits nothing and computes no closures.
    """

    #: Serialized-but-uncommitted actions: the serializer keeps no
    #: authoritative state, so nothing ever awaits a commit.
    uncommitted_count = 0
    #: Simulated CPU-ms spent on transitive closures (it builds none).
    closure_cpu_ms = 0.0

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host: Host,
        *,
        eager: bool = False,
        detector=None,
    ) -> None:
        self.eager = eager
        #: The global action queue; index == order number pos(a).
        self.queue: List[Action] = []
        #: Clients that attached once but detached/evicted since: their
        #: in-flight submissions are dropped, a never-attached client's
        #: are a protocol error.
        self._detached: Set[ClientId] = set()
        super().__init__(
            sim, network, host, BasicServerStats(), detector=detector
        )

    def _client_record(self, client_id, radius, interests) -> int:
        """pos_C = -1: nothing sent yet.  The serializer sends
        everything to everyone, so ``radius`` and ``interests`` filter
        nothing here."""
        return -1

    def attach_client(self, client_id: ClientId, **kwargs) -> None:
        super().attach_client(client_id, **kwargs)
        self._detached.discard(client_id)

    def detach_client(self, client_id: ClientId) -> None:
        super().detach_client(client_id)
        self._detached.add(client_id)

    def _serves_unattached(self, src: ClientId) -> bool:
        if src not in self._detached:
            raise ProtocolError(f"submission from unattached client {src}")
        return False

    def _accept(self, src: ClientId, message: SubmitAction) -> None:
        action = message.action

        def serialize() -> None:
            self._serialize_and_reply(src, action)

        self.host.execute(TIMESTAMP_MS, serialize)

    def _serialize_and_reply(self, src: ClientId, action: Action) -> None:
        if src not in self.clients:
            # Evicted mid-flight (between receipt and this host
            # completion): un-burn the id for resubmission.
            self._release(src, action)
            return
        position = len(self.queue)
        self.queue.append(action)
        self.stats.actions_serialized += 1
        if self.eager:
            # Push the new action to every client right away; the reply
            # batch below still covers anything a client may have missed
            # (e.g. actions serialized before it attached).
            entry = OrderedAction(position, action)
            for client_id in self.clients:
                if self.clients[client_id] >= position:
                    continue
                self._send_batch(client_id, [entry])
                self.clients[client_id] = position
        else:
            self._reply_window(src, position)

    def _reply_window(self, client_id: ClientId, upto: int) -> None:
        """Send all actions in (pos_C, upto] to ``client_id`` and
        advance pos_C (Algorithm 2 step (b))."""
        start = self.clients[client_id] + 1
        entries = [
            OrderedAction(position, self.queue[position])
            for position in range(start, upto + 1)
        ]
        if not entries:
            return
        self._send_batch(client_id, entries)
        self.clients[client_id] = upto

    def _send_batch(self, client_id: ClientId, entries: List[OrderedAction]) -> None:
        self.send(client_id, ActionBatch(tuple(entries)))
        self.stats.batches_sent += 1
        self.stats.actions_delivered += len(entries)

    @property
    def queue_length(self) -> int:
        """Number of serialized actions so far."""
        return len(self.queue)
