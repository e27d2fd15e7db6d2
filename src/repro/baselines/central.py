"""The Central architecture — the paper's stand-in for Second Life and
World of Warcraft.

All game logic executes at the server: a client submits an action, the
server evaluates it against the authoritative state (occupying the
server CPU for the action's full cost — this is the scalability
bottleneck Figure 6 exposes), and ships the resulting writes as a
:class:`~repro.core.messages.StateUpdate` to every client interested in
them.  Interest is managed by avatar visibility, the industry-standard
area-of-interest scheme.  Clients are thin: they install updates into
their local view and render.

Because a single authority orders all writes and clients only ever see
authoritative values, the Central model is trivially consistent — its
problem is the computational footprint per user concentrating on one
machine (Figure 1's scalability-vs-complexity tradeoff).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.baselines.common import BaselineClient, BaselineConfig, BaselineEngine
from repro.core.messages import StateUpdate, SubmitAction
from repro.net.host import Host
from repro.types import ClientId
from repro.world.base import World


@dataclass
class CentralStats:
    """Server-side counters."""

    actions_evaluated: int = 0
    updates_sent: int = 0


class CentralEngine(BaselineEngine):
    """Central server architecture with visibility interest management.

    ``interest_radius`` bounds which clients receive an update: those
    whose avatar is within the radius of the acting avatar (plus always
    the originator).  ``None`` sends every update to every client.
    """

    SERVER_HANDLERS = {SubmitAction: "_evaluate"}
    CLIENT_HANDLERS = {StateUpdate: "_install"}

    def __init__(
        self,
        world: World,
        num_clients: int,
        config: Optional[BaselineConfig] = None,
        *,
        interest_radius: Optional[float] = None,
    ) -> None:
        super().__init__(world, num_clients, config)
        self.interest_radius = interest_radius
        self.stats = CentralStats()

    # ------------------------------------------------------------------
    # Server side: evaluate, then fan out by interest
    # ------------------------------------------------------------------
    def _evaluate(self, src: ClientId, message: SubmitAction) -> None:
        action = message.action
        submitted_at = self.sim.now
        host = self._evaluator(src)

        def evaluate() -> None:
            result = action.apply(self.state)
            self.state.merge(result.values())  # record versions
            self.stats.actions_evaluated += 1
            update = StateUpdate(
                result.written, cause=action.action_id, submitted_at=submitted_at
            )
            recipients = self._fan_out(
                update,
                lambda client_id: client_id == action.client_id
                or self._near(client_id, action.position, self.interest_radius),
            )
            self._evaluated(src, host, recipients)

        host.execute(action.cost_ms + self.config.eval_overhead_ms, evaluate)

    def _evaluator(self, src: ClientId) -> Host:
        """The CPU that evaluates ``src``'s actions."""
        return self.server_host

    def _evaluated(self, src: ClientId, host: Host, recipients: List[ClientId]) -> None:
        """Count an evaluation ``host`` finished for ``src``."""
        self.stats.updates_sent += len(recipients)

    # ------------------------------------------------------------------
    # Client side: install updates
    # ------------------------------------------------------------------
    def _install(self, client: BaselineClient, update: StateUpdate) -> None:
        def install() -> None:
            client.store.merge(
                {oid: dict(attrs) for oid, attrs in update.values}
            )
            client.evaluated += 1
            if update.cause is not None and update.cause.client_id == client.client_id:
                # Response time: submission to authoritative update arrival.
                client.note_confirmed(update.cause)

        client.host.execute(self.UPDATE_APPLY_COST_MS, install)
