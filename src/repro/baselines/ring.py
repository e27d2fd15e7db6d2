"""The RING-like architecture — visibility-filtered action relay.

RING (Funkhouser '95) and DIVE route every update through a central
server that tracks entity positions and forwards each update only to
the clients that can *see* the acting entity.  Our RING-like baseline
does the same at the action level, which is the variant the paper
compares against in Figure 10: the server relays an action to the
clients whose avatar is within visibility of the actor (plus the
originator); recipients evaluate it on their local replica.

This scales — per-client load is proportional to local avatar density,
like SEVE — but it is **inconsistent by construction** (Section III-B):
causal influence is determined by action *semantics*, not by sight.  A
client that never saw an action writing object x keeps evaluating later
actions against a stale x, and the replicas permanently diverge (the
Figure 2/3 arrow anomaly).  The consistency metrics in
:mod:`repro.metrics.consistency` quantify exactly that.

The server maintains its own replica to know entity positions; tracking
is cheap (it installs the *declared* spatial effects, it does not run
game logic), which is why RING's server-side cost in Figure 10 is about
1% below SEVE's closure computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.common import BaselineClient, BaselineConfig, BaselineEngine
from repro.core.action import Action
from repro.core.messages import RelayedAction, SubmitAction
from repro.errors import ActionAborted, MissingObjectError
from repro.types import ClientId
from repro.world.base import World


@dataclass
class RingStats:
    """Server-side counters."""

    actions_relayed: int = 0
    messages_sent: int = 0
    #: Actions a recipient could not evaluate against its replica
    #: (stale/missing reads) — one face of the inconsistency.
    evaluation_failures: int = 0


class RingEngine(BaselineEngine):
    """Visibility-filtered relay (RING/DIVE-style interest management)."""

    SERVER_HANDLERS = {SubmitAction: "_route"}
    CLIENT_HANDLERS = {RelayedAction: "_evaluate"}

    def __init__(
        self,
        world: World,
        num_clients: int,
        config: Optional[BaselineConfig] = None,
        *,
        visibility: float = 30.0,
        tracking_cost_ms: float = 0.05,
    ) -> None:
        super().__init__(world, num_clients, config)
        self.visibility = visibility
        self.tracking_cost_ms = tracking_cost_ms
        self.stats = RingStats()

    # ------------------------------------------------------------------
    # Server: track positions, route by visibility
    # ------------------------------------------------------------------
    def _route(self, src: ClientId, message: SubmitAction) -> None:
        action = message.action

        def route() -> None:
            # Position tracking: the server applies the action to its own
            # replica so future routing decisions see fresh positions.
            self._apply_quietly(action, self.state)
            self.stats.actions_relayed += 1
            recipients = self._fan_out(
                RelayedAction(action, submitted_at=self.sim.now),
                lambda client_id: client_id == action.client_id
                or self._near(client_id, action.position, self.visibility),
            )
            self.stats.messages_sent += len(recipients)

        self.server_host.execute(self.tracking_cost_ms, route)

    # ------------------------------------------------------------------
    # Client: evaluate whatever arrives, in arrival order
    # ------------------------------------------------------------------
    def _evaluate(self, client: BaselineClient, message: RelayedAction) -> None:
        action = message.action

        def evaluate() -> None:
            if not self._apply_quietly(action, client.store):
                self.stats.evaluation_failures += 1
            client.evaluated += 1
            if action.client_id == client.client_id:
                client._cancel_retry(action.action_id)
                client.note_confirmed(action.action_id)

        client.host.execute(
            action.cost_ms + self.config.eval_overhead_ms, evaluate
        )

    @staticmethod
    def _apply_quietly(action: Action, store) -> bool:
        """Apply an action, tolerating the failures inconsistency causes.

        A RING replica may lack (or hold stale) reads; a real client
        would render *something* rather than crash, so failed
        evaluations degrade to no-ops.  Returns False on failure.
        """
        try:
            action.apply(store)
            return True
        except (MissingObjectError, ActionAborted):
            return False
