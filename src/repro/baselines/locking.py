"""The lock-based protocol of Section II-B (Project Darkstar style).

To process an action, a client first acquires global locks on the
action's read set (shared) and write set (exclusive) from the server's
lock manager.  Once granted, the client executes the action on its
local replica and transmits the *effect* (the written values) to the
server, which broadcasts it to all other clients and releases the
locks.

The paper's two criticisms, both observable here:

1. **Latency** — "the minimum time required by a client to proceed to
   the next conflicting transaction is twice the round trip time":
   request→grant is one RTT, execute→effect-broadcast is another.
2. **Blocking** — conflicting transactions queue on the lock table, so
   contention serializes clients on top of the 2·RTT floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.baselines.common import BaselineClient, BaselineConfig, BaselineEngine
from repro.core.action import Action, ActionId, ActionResult
from repro.core.messages import SubmitAction, wire_size
from repro.errors import ProtocolError
from repro.state.locks import LockTable
from repro.types import SERVER_ID, ClientId, TimeMs
from repro.world.base import World


@dataclass(frozen=True)
class LockGrant:
    """Server -> client: every lock for this action is now held."""

    action_id: ActionId


@dataclass(frozen=True)
class Effect:
    """Client -> server -> clients: the executed action's writes."""

    action_id: ActionId
    written: tuple  # canonicalised values, as ActionResult.written
    submitted_at: TimeMs = 0.0


def _message_size(message: object) -> int:
    if isinstance(message, LockGrant):
        return 24
    if isinstance(message, Effect):
        return 24 + sum(8 + 12 * len(attrs) for _, attrs in message.written)
    return wire_size(message)


@dataclass
class LockingStats:
    """Server-side counters."""

    lock_requests: int = 0
    immediate_grants: int = 0
    queued_grants: int = 0
    effects_broadcast: int = 0


class LockingEngine(BaselineEngine):
    """Distributed-locking client-server net-VE."""

    def __init__(
        self,
        world: World,
        num_clients: int,
        config: Optional[BaselineConfig] = None,
        *,
        lock_manager_cost_ms: float = 0.05,
    ) -> None:
        super().__init__(world, num_clients, config)
        self.locks = LockTable()
        self.lock_manager_cost_ms = lock_manager_cost_ms
        self.stats = LockingStats()
        #: Actions awaiting grant or effect, by id (server side).
        self._in_flight: Dict[ActionId, Action] = {}
        #: Each client's own actions awaiting their lock grant.
        self._pending_actions: Dict[ClientId, Dict[ActionId, Action]] = {
            client_id: {} for client_id in self.clients
        }

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def _on_server_message(self, src: ClientId, payload: object) -> None:
        if isinstance(payload, SubmitAction):
            action = payload.action

            def process() -> None:
                self._handle_lock_request(src, action)

            self.server_host.execute(self.lock_manager_cost_ms, process)
        elif isinstance(payload, Effect):
            self.server_host.execute(
                self.lock_manager_cost_ms,
                lambda: self._handle_effect(src, payload),
            )
        else:
            raise ProtocolError(
                f"locking server: unexpected {type(payload).__name__}"
            )

    def _handle_lock_request(self, src: ClientId, action: Action) -> None:
        self.stats.lock_requests += 1
        self._in_flight[action.action_id] = action

        def granted() -> None:
            grant = LockGrant(action.action_id)
            self.network.send(SERVER_ID, src, grant, _message_size(grant))

        immediate = self.locks.acquire(
            action.action_id,
            shared=action.reads,
            exclusive=action.writes,
            on_granted=granted,
        )
        if immediate:
            self.stats.immediate_grants += 1
        else:
            self.stats.queued_grants += 1

    def _handle_effect(self, src: ClientId, effect: Effect) -> None:
        action = self._in_flight.pop(effect.action_id, None)
        if action is None:
            raise ProtocolError(f"effect for unknown {effect.action_id}")
        # Install authoritatively, release locks, broadcast to everyone.
        values = {oid: dict(attrs) for oid, attrs in effect.written}
        self.state.merge(values)
        self.locks.release(effect.action_id)
        self.stats.effects_broadcast += 1
        size = _message_size(effect)
        for client_id in self.clients:
            self.network.send(SERVER_ID, client_id, effect, size)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(self, client_id: ClientId, action: Action) -> None:
        """Phase 1: ask the server for the locks."""
        self.clients[client_id].note_submitted(action)
        self._pending_actions[client_id][action.action_id] = action
        message = SubmitAction(action)
        self.network.send(client_id, SERVER_ID, message, wire_size(message))

    def _on_client_message(
        self, client: BaselineClient, src: ClientId, payload: object
    ) -> None:
        if isinstance(payload, LockGrant):
            self._execute_under_lock(client, payload.action_id)
        elif isinstance(payload, Effect):
            self._apply_effect(client, payload)
        else:
            raise ProtocolError(
                f"locking client: unexpected {type(payload).__name__}"
            )

    def _execute_under_lock(self, client: BaselineClient, action_id: ActionId) -> None:
        """Phase 2: locks held — run the action locally, ship the effect."""
        action = self._pending_actions[client.client_id].pop(action_id, None)
        if action is None:
            raise ProtocolError(f"grant for unknown {action_id}")

        def execute() -> None:
            result = action.apply(client.store)
            client.evaluated += 1
            effect = Effect(
                action_id,
                result.written,
                submitted_at=client._submit_times.get(action_id, 0.0),
            )
            self.network.send(
                client.client_id, SERVER_ID, effect, _message_size(effect)
            )

        client.host.execute(
            action.cost_ms + self.config.eval_overhead_ms, execute
        )

    def _apply_effect(self, client: BaselineClient, effect: Effect) -> None:
        def install() -> None:
            if effect.action_id.client_id != client.client_id:
                client.store.merge(
                    {oid: dict(attrs) for oid, attrs in effect.written}
                )
            else:
                # Originator already holds the values (it computed them);
                # the echo is its commit confirmation.
                client.note_confirmed(effect.action_id)

        client.host.execute(self.UPDATE_APPLY_COST_MS, install)
