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
from typing import Optional

from repro.baselines.common import BaselineClient, BaselineConfig, BaselineEngine
from repro.core.action import Action, ActionResult
from repro.core.messages import StateUpdate, SubmitAction, wire_size
from repro.errors import ProtocolError
from repro.types import SERVER_ID, ClientId
from repro.world.base import World
from repro.world.geometry import Vec2


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
    def _on_server_message(self, src: ClientId, payload: object) -> None:
        if not isinstance(payload, SubmitAction):
            raise ProtocolError(
                f"central server: unexpected {type(payload).__name__}"
            )
        action = payload.action
        submitted_at = self.sim.now

        def evaluate() -> None:
            result = action.apply(self.state)
            self.state.merge(result.values())  # record versions
            self.stats.actions_evaluated += 1
            self._fan_out(action, result, submitted_at)

        self.server_host.execute(
            action.cost_ms + self.config.eval_overhead_ms, evaluate
        )

    def _fan_out(
        self, action: Action, result: ActionResult, submitted_at: float
    ) -> None:
        update = StateUpdate(
            result.written, cause=action.action_id, submitted_at=submitted_at
        )
        size = wire_size(update)
        actor_position = action.position
        for client_id in self.clients:
            if client_id in self.evicted:
                continue  # presumed dead (Section III-C)
            if client_id != action.client_id and not self._interested(
                client_id, actor_position
            ):
                continue
            self.network.send(SERVER_ID, client_id, update, size)
            self.stats.updates_sent += 1

    def _interested(
        self, client_id: ClientId, actor_position: Optional[Vec2]
    ) -> bool:
        if self.interest_radius is None or actor_position is None:
            return True
        avatar_oid = self.world.avatar_of(client_id)
        if avatar_oid is None or avatar_oid not in self.state:
            return True
        obj = self.state.get(avatar_oid)
        position = Vec2(float(obj["x"]), float(obj["y"]))
        return position.distance_to(actor_position) <= self.interest_radius

    # ------------------------------------------------------------------
    # Client side: install updates
    # ------------------------------------------------------------------
    def _on_client_message(
        self, client: BaselineClient, src: ClientId, payload: object
    ) -> None:
        if not isinstance(payload, StateUpdate):
            raise ProtocolError(
                f"central client: unexpected {type(payload).__name__}"
            )

        def install() -> None:
            client.store.merge(
                {oid: dict(attrs) for oid, attrs in payload.values}
            )
            client.evaluated += 1
            if payload.cause is not None and payload.cause.client_id == client.client_id:
                # Response time: submission to authoritative update arrival.
                client.note_confirmed(payload.cause)

        client.host.execute(self.UPDATE_APPLY_COST_MS, install)
