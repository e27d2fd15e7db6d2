"""Shared machinery of the baseline architectures.

All three baselines are client–server relay systems: clients submit
actions; the server routes something (raw actions or evaluated state
updates) to some set of clients.  They differ only in *who evaluates*
and *who receives*.  The testbed underneath — simulator, star network,
hosts, fault injector, heartbeats, crash bookkeeping, and each client's
submission clock and retry timers — is the one the SEVE engines run on
(:mod:`repro.core.chassis`), so every architecture faces the same
degraded network.  What this module adds is the baselines' own server
side: a :class:`BaselineClient` with a single full replica, the common
front door (idempotent absorption of client resubmissions by
``ActionId``), the heartbeat-driven liveness sweep with its eviction
rule, and the drain rule (see docs/fault_model.md).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from repro.core.action import Action, ActionId
from repro.core.chassis import ClientShell, EngineChassis, TestbedConfig
from repro.core.messages import Heartbeat, SubmitAction
from repro.net.faults import RetryPolicy
from repro.net.host import Host
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.state.store import ObjectStore
from repro.state.versioned import VersionedStore
from repro.types import SERVER_ID, ClientId, TimeMs
from repro.world.base import World


#: The baselines' configuration *is* the shared testbed's: network and
#: evaluation-overhead parameters plus the fault-tolerance knobs
#: (``fault_plan``, ``reliability``, ``retry``, ``liveness``), declared
#: once for every architecture.
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
        *,
        retry: Optional[RetryPolicy] = None,
        retry_seed: int = 0,
        obs=None,
    ) -> None:
        super().__init__(
            sim,
            network,
            host,
            client_id,
            store,
            retry=retry,
            retry_seed=retry_seed,
            obs=obs,
        )
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


class BaselineEngine(EngineChassis):
    """Common assembly for the baseline architectures.

    Subclasses register the server handler and implement routing; the
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
        #: Clients the server presumes dead (liveness eviction).
        self.evicted: Set[ClientId] = set()
        #: Liveness evictions performed.
        self.clients_evicted = 0
        #: Resubmissions absorbed by the ActionId dedup filter.
        self.duplicate_submissions = 0
        self._seen_actions: Set[ActionId] = set()
        self._last_heard: Dict[ClientId, TimeMs] = {}
        self._stop_liveness: Optional[Callable[[], None]] = None
        self.network.register(SERVER_ID, self._server_dispatch)
        for client_id in range(num_clients):
            self._adopt(
                BaselineClient(
                    self.sim,
                    self.network,
                    Host(self.sim, client_id, obs=self.obs),
                    client_id,
                    self.state.snapshot(),
                    self._make_client_handler(client_id),
                    retry=self.config.retry,
                    retry_seed=self.retry_seed,
                    obs=self.obs,
                )
            )
            self._last_heard[client_id] = 0.0

    # -- subclass responsibilities ----------------------------------------
    def _on_server_message(self, src: ClientId, payload: object) -> None:
        raise NotImplementedError

    def _on_client_message(
        self, client: BaselineClient, src: ClientId, payload: object
    ) -> None:
        raise NotImplementedError

    # -- wiring -------------------------------------------------------------
    def _server_dispatch(self, src: ClientId, payload: object) -> None:
        """Common server-side front door: liveness bookkeeping, heartbeat
        absorption, and idempotent dedup of resubmitted actions — then
        the architecture-specific handler."""
        if src in self._last_heard:
            self._last_heard[src] = self.sim.now
        if isinstance(payload, Heartbeat):
            return
        if isinstance(payload, SubmitAction):
            action_id = payload.action.action_id
            if action_id in self._seen_actions:
                self.duplicate_submissions += 1
                return
            self._seen_actions.add(action_id)
            if self.obs is not None:
                self.obs.on_server_relay(self.sim.now, len(self.clients))
        self._on_server_message(src, payload)

    def _make_client_handler(
        self, client_id: ClientId
    ) -> Callable[[ClientId, object], None]:
        def handler(src: ClientId, payload: object) -> None:
            self._on_client_message(self.clients[client_id], src, payload)

        return handler

    # -- liveness (Section III-C, applied uniformly) ------------------------
    def start(self, *, stop_at: Optional[TimeMs] = None) -> None:
        """Install heartbeats and the liveness sweep when configured
        (baselines have no other periodic server processes)."""
        self._start_heartbeats(stop_at)
        if self.config.liveness is not None and self._stop_liveness is None:
            self._stop_liveness = self.sim.call_every(
                self.config.liveness.timeout_ms / 2.0,
                self._liveness_tick,
                stop_at=stop_at,
            )

    def stop(self) -> None:
        """Tear down heartbeats and the liveness sweep."""
        self._stop_heartbeats()
        if self._stop_liveness is not None:
            self._stop_liveness()
            self._stop_liveness = None

    def _liveness_tick(self) -> None:
        deadline = self.sim.now - self.config.liveness.timeout_ms
        for client_id in [
            cid
            for cid, heard in self._last_heard.items()
            if heard < deadline and cid not in self.evicted
        ]:
            self._evict(client_id)

    def _evict(self, client_id: ClientId) -> None:
        self.evicted.add(client_id)
        self._last_heard.pop(client_id, None)
        self.network.reset_channels(client_id)
        self.clients_evicted += 1

    def mark_alive(self, client_id: ClientId) -> None:
        """The harness reconnected this client."""
        self.dead.discard(client_id)
        self.evicted.discard(client_id)
        self._last_heard[client_id] = self.sim.now
        if self.config.liveness is not None:
            self._install_heartbeat(client_id)

    def live_client_ids(self) -> list[ClientId]:
        """Clients neither crashed nor evicted — the population over
        which end-of-run consistency is asserted."""
        return [
            client_id
            for client_id in self.clients
            if client_id not in self.dead and client_id not in self.evicted
        ]

    # -- driving ------------------------------------------------------------
    def planning_store(self, client_id: ClientId) -> ObjectStore:
        """The replica a client plans its next action from."""
        return self.clients[client_id].store

    def run_to_quiescence(self, max_extra_ms: TimeMs = 600_000.0) -> None:
        """Drain every in-flight event.

        With liveness machinery running, the event queue never empties
        on its own: step until every surviving client's submissions are
        answered and every crashed client has been evicted, then tear
        the periodic processes down and drain the remainder.  Without
        liveness, stop() is a no-op and the queue empties naturally —
        the identical pre-fault code path.
        """
        deadline = self.sim.now + max_extra_ms
        if self._heartbeat_stoppers or self._stop_liveness is not None:
            while self.sim.now < deadline:
                if not self.sim.step():
                    break
                if self._quiescent():
                    break
        self.stop()
        while self.sim.now < deadline and self.sim.step():
            pass

    def _quiescent(self) -> bool:
        if any(
            client._submit_times
            for client_id, client in self.clients.items()
            if client_id not in self.dead and client_id not in self.evicted
        ):
            return False
        # A crashed client not yet evicted keeps the run live until the
        # liveness sweep presumes it dead (Section III-C).
        return not any(
            client_id not in self.evicted for client_id in self.dead
        )
