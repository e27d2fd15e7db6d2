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

Fault tolerance (Section III-C): resubmissions of an already-serialized
action are absorbed idempotently by ``ActionId``, and an optional
:class:`~repro.net.faults.LivenessConfig` makes the server track when it
last heard from each client and evict the silent ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.core.action import Action, ActionId
from repro.core.messages import (
    ActionBatch,
    Heartbeat,
    OrderedAction,
    SubmitAction,
    wire_size,
)
from repro.errors import ProtocolError
from repro.net.faults import LivenessConfig
from repro.net.host import Host
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.types import SERVER_ID, ClientId, TimeMs


@dataclass
class BasicServerStats:
    """Counters for the serializer server."""

    actions_serialized: int = 0
    batches_sent: int = 0
    actions_delivered: int = 0  # sum over batches of entries sent
    #: Resubmissions absorbed by the ActionId dedup filter.
    duplicate_submissions: int = 0
    #: Clients evicted by the liveness timeout.
    clients_evicted: int = 0


class BasicServer:
    """Timestamp-and-serialize server (Algorithm 2).

    ``timestamp_cost_ms`` is the CPU cost of serializing one action
    (near zero — the point of the architecture is that the server does
    no game logic).

    It answers to the surface the engine reads every serializer through
    — ``clients``, ``attach_client``/``detach_client``/``evict_client``,
    ``uncommitted_count``, ``closure_cpu_ms``, ``stats.clients_evicted``
    — with the values of a server that commits nothing and computes no
    closures.
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
        timestamp_cost_ms: float = 0.0,
        liveness: Optional[LivenessConfig] = None,
        obs=None,
        detector=None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.host = host
        self.eager = eager
        self.timestamp_cost_ms = timestamp_cost_ms
        self.liveness = liveness
        #: Optional :class:`repro.obs.Observer` (read-only telemetry).
        self._obs = obs
        #: Optional :class:`repro.core.detection.CheatDetector`; ``None``
        #: (honest runs) keeps every path byte-identical.
        self.detector = detector
        #: The global action queue; index == order number pos(a).
        self.queue: List[Action] = []
        #: The attached clients, each with its pos_C: the index of the
        #: last action sent to C (-1 before anything was sent).
        self.clients: Dict[ClientId, int] = {}
        self.stats = BasicServerStats()
        #: ActionIds already serialized (idempotent resubmission).
        self._seen_actions: Set[ActionId] = set()
        #: Clients that attached once but detached/evicted since; their
        #: in-flight submissions are dropped rather than flagged.
        self._detached: Set[ClientId] = set()
        self._last_heard: Dict[ClientId, TimeMs] = {}
        self._stop_liveness: Optional[Callable[[], None]] = None
        network.register(SERVER_ID, self._on_message)

    def attach_client(
        self,
        client_id: ClientId,
        *,
        radius: float = 0.0,
        interests: Optional[frozenset[str]] = None,
    ) -> None:
        """Start tracking a client (pos_C = -1: nothing sent yet).  The
        serializer sends everything to everyone, so ``radius`` and
        ``interests`` filter nothing here."""
        if client_id in self.clients:
            raise ProtocolError(f"client {client_id} already attached")
        self.clients[client_id] = -1
        self._detached.discard(client_id)
        self._last_heard[client_id] = self.sim.now

    def detach_client(self, client_id: ClientId) -> None:
        """Stop tracking a client (failure/disconnect)."""
        self.clients.pop(client_id, None)
        self._last_heard.pop(client_id, None)
        self._detached.add(client_id)

    # ------------------------------------------------------------------
    # Liveness (Section III-C)
    # ------------------------------------------------------------------
    def start(self, *, stop_at: Optional[TimeMs] = None) -> None:
        """Install the periodic liveness sweep (no-op without a
        :class:`LivenessConfig` — the reliable-network configuration)."""
        if self.liveness is None or self._stop_liveness is not None:
            return
        self._stop_liveness = self.sim.call_every(
            self.liveness.timeout_ms / 2.0,
            self._liveness_tick,
            stop_at=stop_at,
        )

    def stop(self) -> None:
        """Tear down the periodic liveness sweep."""
        if self._stop_liveness is not None:
            self._stop_liveness()
            self._stop_liveness = None

    def _note_alive(self, client_id: ClientId) -> None:
        if client_id in self.clients:
            self._last_heard[client_id] = self.sim.now

    def _liveness_tick(self) -> None:
        deadline = self.sim.now - self.liveness.timeout_ms
        for client_id in [
            cid for cid, heard in self._last_heard.items() if heard < deadline
        ]:
            self.evict_client(client_id)

    def evict_client(self, client_id: ClientId) -> None:
        """Presume ``client_id`` dead and stop tracking it."""
        if client_id not in self.clients:
            return
        self.detach_client(client_id)
        self.network.reset_channels(client_id)
        self.stats.clients_evicted += 1

    # ------------------------------------------------------------------
    def _on_message(self, src: ClientId, payload: object) -> None:
        if isinstance(payload, Heartbeat):
            self._note_alive(src)
            return
        if not isinstance(payload, SubmitAction):
            if self.detector is not None:
                # The basic serializer has no completion channel, so any
                # non-submit payload is a protocol breach — which is the
                # detection signal for the completion-forging cheats.
                self.detector.flag(
                    "breach", src,
                    detail=f"unexpected {type(payload).__name__} "
                    f"to the basic serializer",
                )
                return
            raise ProtocolError(
                f"basic server: unexpected message {type(payload).__name__}"
            )
        self._note_alive(src)
        action = payload.action
        detector = self.detector
        if action.action_id in self._seen_actions:
            if detector is not None and detector.check_replay(src, action):
                return
            self.stats.duplicate_submissions += 1
            return
        if src in self._detached and src not in self.clients:
            # Evicted/disconnected: drop without burning the ActionId —
            # a delayed resubmission after re-attach must still be able
            # to serialize (never-attached clients still hit the
            # ProtocolError below).
            return
        if detector is not None:
            if detector.screen_submission(src, action):
                return  # rejected pre-burn, zero CPU, zero footprint
            detector.remember_submission(action)
            detector.note_admit(src, action)
        self._seen_actions.add(action.action_id)

        def serialize() -> None:
            self._serialize_and_reply(src, action)

        self.host.execute(self.timestamp_cost_ms, serialize)

    def _serialize_and_reply(self, src: ClientId, action: Action) -> None:
        if src not in self.clients:
            if src in self._detached:
                # Evicted mid-flight (between receipt and this host
                # completion): un-burn the id for resubmission.
                self._seen_actions.discard(action.action_id)
                return
            raise ProtocolError(f"submission from unattached client {src}")
        position = len(self.queue)
        self.queue.append(action)
        self.stats.actions_serialized += 1
        if self._obs is not None:
            recipients = len(self.clients) if self.eager else 1
            self._obs.on_server_relay(self.sim.now, recipients)
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
        batch = ActionBatch(tuple(entries))
        self.network.send(SERVER_ID, client_id, batch, wire_size(batch))
        self.stats.batches_sent += 1
        self.stats.actions_delivered += len(entries)

    @property
    def queue_length(self) -> int:
        """Number of serialized actions so far."""
        return len(self.queue)
