"""Shared machinery of the baseline architectures.

Every baseline is a client–server relay system: clients submit
actions; the server routes something (raw actions, evaluated state
updates, lock effects or certification verdicts) to some set of
clients.  They differ only in *who evaluates* and *who receives*, so
the receiving is written once here: :meth:`BaselineEngine._fan_out`
sends to every attached client a predicate admits (an evicted client
is presumed dead, Section III-C), and :meth:`BaselineEngine._near` is
the one area-of-interest rule.  The testbed underneath — simulator,
star network, hosts, fault injector, heartbeats, crash bookkeeping, and
each client's submission clock and retry timers — is the one the SEVE
engines run on (:mod:`repro.core.chassis`), so every architecture faces
the same degraded network.  What this module adds is the baselines' own server
side: a :class:`BaselineClient` with a single full replica, a
:class:`BaselineServer` on the serializers' shared
:class:`~repro.core.chassis.ServerShell` (heartbeat liveness and
eviction, idempotent absorption of client resubmissions by
``ActionId``), and the drain rule (see docs/fault_model.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.action import Action
from repro.core.chassis import (
    ClientShell,
    EngineChassis,
    ServerShell,
    ServerStats,
    TestbedConfig,
)
from repro.core.messages import SubmitAction, wire_size
from repro.errors import ProtocolError
from repro.net.host import Host
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.state.store import ObjectStore
from repro.state.versioned import VersionedStore
from repro.types import SERVER_ID, ClientId, TimeMs
from repro.world.base import World
from repro.world.geometry import Vec2


#: The baselines' configuration *is* the shared testbed's: network and
#: evaluation-overhead parameters plus the fault plan, declared once for
#: every architecture.
BaselineConfig = TestbedConfig


class BaselineClient(ClientShell):
    """A baseline client: one local replica plus a CPU.

    The replica starts as a full snapshot of the initial world (the
    baseline systems replicate the database and ship deltas) and is
    advanced by whatever the architecture routes to it.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host: Host,
        client_id: ClientId,
        store: ObjectStore,
        handler: Callable[[ClientId, object], None],
    ) -> None:
        super().__init__(sim, network, host, client_id, store)
        self.evaluated = 0
        network.register(client_id, handler)

    @property
    def store(self) -> ObjectStore:
        """The client's one replica (its stable replica)."""
        return self.stable

    def submit(self, action: Action) -> None:
        """Send a freshly created action to the server."""
        self.note_submitted(action)
        self._send_submission(action)


@dataclass
class RelayStats(ServerStats):
    """The baseline server's counters (its front door's included)."""

    #: Submissions relayed to the architecture past the door.
    actions_relayed: int = 0


class BaselineServer(ServerShell):
    """The baselines' server side: the shell's front door — every client
    is attached when the engine is built, an eviction detaches it and a
    reconnect re-attaches it — then the architecture's own handler.
    Baseline clients are never screened (adversaries are a SEVE
    setting)."""

    def __init__(self, engine: "BaselineEngine") -> None:
        self._engine = engine
        super().__init__(
            engine.sim, engine.network, engine.server_host, RelayStats()
        )

    def _serves_unattached(self, src: ClientId) -> bool:
        """A baseline relays every submission, an evicted client's too."""
        return True

    def _accept(self, src: ClientId, message: SubmitAction) -> None:
        self.stats.actions_relayed += 1
        self._engine._on_server_message(src, message)

    def _on_unhandled(self, src: ClientId, payload: object) -> None:
        """Every other message is the architecture's own (locking's
        effects, timestamp ordering's certifications)."""
        self._engine._on_server_message(src, payload)


class BaselineEngine(EngineChassis):
    """Common assembly for the baseline architectures.

    Subclasses declare their handler tables and routing; the
    :class:`~repro.core.chassis.EngineChassis` underneath is the one the
    SEVE engines are assembled on, so the experiment harness drives and
    measures all architectures uniformly.
    """

    #: The (cheap) cost of installing a state update at a thin client.
    UPDATE_APPLY_COST_MS = 0.1
    #: Per-destination cost of a relay server's routing work.
    RELAY_COST_MS = 0.01

    def __init__(
        self,
        world: World,
        num_clients: int,
        config: Optional[BaselineConfig] = None,
    ) -> None:
        super().__init__(world, num_clients, config or BaselineConfig())
        self.state = VersionedStore(world.initial_objects())
        self.server = BaselineServer(self)
        for client_id in range(num_clients):
            self._adopt(
                BaselineClient(
                    self.sim,
                    self.network,
                    Host(self.sim, client_id),
                    client_id,
                    self.state.snapshot(),
                    self._make_client_handler(client_id),
                )
            )
            self.server.attach_client(client_id)

    # -- subclass responsibilities ----------------------------------------
    #: Dispatch tables: message type -> name of the engine method that
    #: handles it, called as ``handler(src, message)`` for a message past
    #: the server's front door and as ``handler(client, message)`` for
    #: one a client receives.
    SERVER_HANDLERS: Dict[type, str] = {}
    CLIENT_HANDLERS: Dict[type, str] = {}

    def _on_server_message(self, src: ClientId, payload: object) -> None:
        getattr(self, self._handler(self.SERVER_HANDLERS, payload))(src, payload)

    def _on_client_message(
        self, client: BaselineClient, src: ClientId, payload: object
    ) -> None:
        getattr(self, self._handler(self.CLIENT_HANDLERS, payload))(client, payload)

    def _handler(self, table: Dict[type, str], payload: object) -> str:
        name = table.get(type(payload))
        if name is None:
            raise ProtocolError(
                f"{type(self).__name__}: unexpected {type(payload).__name__}"
            )
        return name

    # -- the server's back half ---------------------------------------------
    def _fan_out(
        self, message: object, admits: Optional[Callable[[ClientId], bool]] = None
    ) -> List[ClientId]:
        """Send ``message`` to every attached client ``admits`` (default:
        all) lets through, in id order, and return the recipients.  An
        evicted client is presumed dead (Section III-C)."""
        recipients = [
            client_id
            for client_id in self.clients
            if client_id in self.server.clients
            and (admits is None or admits(client_id))
        ]
        size = wire_size(message)
        for client_id in recipients:
            self.network.send(SERVER_ID, client_id, message, size)
        return recipients

    def _near(
        self, client_id: ClientId, position: Optional[Vec2], radius: Optional[float]
    ) -> bool:
        """The area-of-interest rule: the client's avatar lies within
        ``radius`` of ``position``.  Without a radius, a position or an
        avatar with one, everything is of interest."""
        if radius is None or position is None:
            return True
        avatar = self._position(client_id)
        return avatar is None or avatar.distance_to(position) <= radius

    def _position(self, client_id: ClientId) -> Optional[Vec2]:
        """Where the client's avatar stands in the server's state, if it
        has one with a position."""
        avatar = self.world.avatar_of(client_id)
        obj = self.state.get(avatar) if avatar in self.state else {}
        if "x" not in obj or "y" not in obj:
            return None
        return Vec2(float(obj["x"]), float(obj["y"]))

    # -- wiring -------------------------------------------------------------
    def _make_client_handler(
        self, client_id: ClientId
    ) -> Callable[[ClientId, object], None]:
        def handler(src: ClientId, payload: object) -> None:
            self._on_client_message(self.clients[client_id], src, payload)

        return handler

    # -- liveness (Section III-C, applied uniformly) ------------------------
    def start(self, *, stop_at: Optional[TimeMs] = None) -> None:
        """Install heartbeats and the server's liveness sweep when
        configured (baselines have no other periodic server processes)."""
        self._start_heartbeats(stop_at)
        self.server.start(stop_at=stop_at)

    def stop(self) -> None:
        """Tear down heartbeats and the liveness sweep."""
        self._stop_heartbeats()
        self.server.stop()

    def mark_alive(self, client_id: ClientId) -> None:
        """The harness reconnected this client: the server re-attaches
        it with a fresh silence clock."""
        self._revive(client_id)
        self.server.detach_client(client_id)
        self.server.attach_client(client_id)

    # -- driving ------------------------------------------------------------
    def planning_store(self, client_id: ClientId) -> ObjectStore:
        """The replica a client plans its next action from."""
        return self.clients[client_id].store

    def stop_and_drain(self, deadline: TimeMs) -> None:
        """End of run: tear the periodic processes down, then dispatch
        every event left before ``deadline``."""
        self.stop()
        while self.sim.now < deadline and self.sim.step():
            pass

    def _quiescent(self) -> bool:
        if any(
            client._submit_times
            for client_id, client in self.clients.items()
            if client_id not in self.dead and client_id in self.server.clients
        ):
            return False
        # A crashed client not yet evicted keeps the run live until the
        # liveness sweep presumes it dead (Section III-C).
        return not self.server.awaiting_eviction(self.dead)
