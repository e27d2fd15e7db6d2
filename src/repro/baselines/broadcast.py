"""The Broadcast architecture — the paper's stand-in for NPSNET/SIMNET.

The server is a pure relay: every submitted action is forwarded to
every client (O(N) messages per action, O(N²) per simulation round —
the Figure 9 traffic blow-up), and every client evaluates every action
against its full local replica.  Each client therefore carries the same
computational load as the Central server does, which is why the two
models break down at the same client count in Figures 6 and 7.

Consistency: the relay preserves a single global order (FIFO links and
one relay point), so replicas agree at quiescence — the model's failing
is cost, not correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.common import BaselineClient, BaselineConfig, BaselineEngine
from repro.core.messages import RelayedAction, SubmitAction, wire_size
from repro.errors import ProtocolError
from repro.metrics.consistency import check_uniform
from repro.types import SERVER_ID, ClientId
from repro.world.base import World


@dataclass
class BroadcastStats:
    """Server-side counters."""

    actions_relayed: int = 0
    messages_sent: int = 0


class BroadcastEngine(BaselineEngine):
    """Relay-everything architecture."""

    def __init__(
        self,
        world: World,
        num_clients: int,
        config: Optional[BaselineConfig] = None,
    ) -> None:
        super().__init__(world, num_clients, config)
        self.stats = BroadcastStats()

    def _on_server_message(self, src: ClientId, payload: object) -> None:
        if not isinstance(payload, SubmitAction):
            raise ProtocolError(
                f"broadcast server: unexpected {type(payload).__name__}"
            )
        relayed = RelayedAction(payload.action, submitted_at=self.sim.now)
        size = wire_size(relayed)
        relay_cost = self.RELAY_COST_MS * max(1, len(self.clients))

        def relay() -> None:
            self.stats.actions_relayed += 1
            for client_id in self.clients:
                if client_id in self.evicted:
                    continue  # presumed dead (Section III-C)
                self.network.send(SERVER_ID, client_id, relayed, size)
                self.stats.messages_sent += 1

        self.server_host.execute(relay_cost, relay)

    def _on_client_message(
        self, client: BaselineClient, src: ClientId, payload: object
    ) -> None:
        if not isinstance(payload, RelayedAction):
            raise ProtocolError(
                f"broadcast client: unexpected {type(payload).__name__}"
            )
        action = payload.action

        def evaluate() -> None:
            action.apply(client.store)
            client.evaluated += 1
            if action.client_id == client.client_id:
                client._cancel_retry(action.action_id)
                client.note_confirmed(action.action_id)

        client.host.execute(
            action.cost_ms + self.config.eval_overhead_ms, evaluate
        )

    def consistency_report(self, replicas):
        # The relay keeps no advancing server state: consistency here
        # means all replicas are identical.
        return check_uniform(replicas), None
