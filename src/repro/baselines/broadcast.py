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
from repro.core.messages import RelayedAction, SubmitAction
from repro.metrics.consistency import check_uniform
from repro.types import ClientId
from repro.world.base import World


@dataclass
class BroadcastStats:
    """Server-side counters."""

    actions_relayed: int = 0
    messages_sent: int = 0


class BroadcastEngine(BaselineEngine):
    """Relay-everything architecture."""

    SERVER_HANDLERS = {SubmitAction: "_relay"}
    CLIENT_HANDLERS = {RelayedAction: "_evaluate"}

    def __init__(
        self,
        world: World,
        num_clients: int,
        config: Optional[BaselineConfig] = None,
    ) -> None:
        super().__init__(world, num_clients, config)
        self.stats = BroadcastStats()

    def _relay(self, src: ClientId, message: SubmitAction) -> None:
        relayed = RelayedAction(message.action, submitted_at=self.sim.now)
        relay_cost = self.RELAY_COST_MS * max(1, len(self.clients))

        def relay() -> None:
            self.stats.actions_relayed += 1
            self.stats.messages_sent += len(self._fan_out(relayed))

        self.server_host.execute(relay_cost, relay)

    def _evaluate(self, client: BaselineClient, message: RelayedAction) -> None:
        action = message.action

        def evaluate() -> None:
            action.apply(client.store)
            client.evaluated += 1
            if action.client_id == client.client_id:
                client._cancel_retry(action.action_id)
                client.note_confirmed(action.action_id)

        client.host.execute(
            action.cost_ms + self.config.eval_overhead_ms, evaluate
        )

    def consistency_report(self, client_ids):
        # The relay keeps no advancing server state: consistency here
        # means all replicas are identical.
        return check_uniform(self.stable_replicas(client_ids)), None
