"""Zoning and sharding — the industry scalability techniques of
Section II-A.

**Zoning** geographically tiles the world; each zone is handled by its
own server process, players in a zone form one broadcast group, and a
player crossing a tile boundary is handed off between servers.  It
scales beautifully while players spread out — and "collapses if too many
users crowd into a zone all at once", because a zone is just a small
Central server with the same per-CPU evaluation budget.

**Sharding** splits the *user base* into disjoint world instances.  It
is trivially scalable and is therefore modelled here only for the
interaction metric it destroys: two players in different shards can
never affect each other, which is the "degrading the massive multiplayer
experience" the paper quotes.

The zoned engine reuses the Central model's evaluation flow but runs one
simulated CPU per zone; cross-zone visibility is handled by forwarding
updates to neighbouring zones' subscribers (the paper notes "great
complications arise from attempts to overlap zones" — our overlap is
the minimal correct one: interest regions may span zones, actions do
not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.baselines.common import BaselineClient, BaselineConfig, BaselineEngine
from repro.core.action import Action, ActionResult
from repro.core.messages import StateUpdate, SubmitAction, wire_size
from repro.errors import ConfigurationError, ProtocolError
from repro.net.host import Host
from repro.types import SERVER_ID, ClientId, TimeMs
from repro.world.base import World
from repro.world.geometry import Vec2


@dataclass
class ZonedStats:
    """Counters for the zoned architecture."""

    actions_evaluated: int = 0
    updates_sent: int = 0
    handoffs: int = 0
    cross_zone_updates: int = 0


class ZonedCentralEngine(BaselineEngine):
    """Central evaluation sharded over a grid of zone servers.

    ``zone_grid`` is the number of tiles per side (a 2x2 grid = 4 zone
    servers).  Each zone has its own CPU; the star network still routes
    through one point (the front-end), which matches deployments where a
    gateway fans out to zone processes over a fast LAN.
    """

    def __init__(
        self,
        world: World,
        num_clients: int,
        config: Optional[BaselineConfig] = None,
        *,
        zone_grid: int = 2,
        world_width: float = 1000.0,
        world_height: float = 1000.0,
        interest_radius: Optional[float] = 30.0,
    ) -> None:
        if zone_grid < 1:
            raise ConfigurationError(f"zone_grid must be >= 1, got {zone_grid}")
        super().__init__(world, num_clients, config)
        self.zone_grid = zone_grid
        self.world_width = world_width
        self.world_height = world_height
        self.interest_radius = interest_radius
        self.stats = ZonedStats()
        #: One CPU per zone server (ids below SERVER_ID are synthetic).
        self.zone_hosts: List[Host] = [
            Host(self.sim, SERVER_ID - 1 - index)
            for index in range(zone_grid * zone_grid)
        ]
        #: Current zone of each client's avatar (tracked authoritatively).
        self._client_zone: Dict[ClientId, int] = {}
        for client_id in self.clients:
            self._client_zone[client_id] = self._zone_of_client(client_id)

    # ------------------------------------------------------------------
    # Zone geometry
    # ------------------------------------------------------------------
    def zone_of_point(self, point: Vec2) -> int:
        """Index of the tile containing ``point``."""
        tile_w = self.world_width / self.zone_grid
        tile_h = self.world_height / self.zone_grid
        col = min(self.zone_grid - 1, max(0, int(point.x // tile_w)))
        row = min(self.zone_grid - 1, max(0, int(point.y // tile_h)))
        return row * self.zone_grid + col

    def _zone_of_client(self, client_id: ClientId) -> int:
        position = self._client_position(client_id)
        return self.zone_of_point(position) if position is not None else 0

    def _client_position(self, client_id: ClientId) -> Optional[Vec2]:
        avatar_oid = self.world.avatar_of(client_id)
        if avatar_oid is None or avatar_oid not in self.state:
            return None
        obj = self.state.get(avatar_oid)
        if "x" not in obj or "y" not in obj:
            return None
        return Vec2(float(obj["x"]), float(obj["y"]))

    def zone_population(self) -> Dict[int, int]:
        """Clients per zone (authoritative view)."""
        population: Dict[int, int] = {}
        for zone in self._client_zone.values():
            population[zone] = population.get(zone, 0) + 1
        return population

    # ------------------------------------------------------------------
    # Server side: evaluate on the acting client's zone CPU
    # ------------------------------------------------------------------
    def _on_server_message(self, src: ClientId, payload: object) -> None:
        if not isinstance(payload, SubmitAction):
            raise ProtocolError(f"zoned server: unexpected {type(payload).__name__}")
        action = payload.action
        zone = self._client_zone.get(src, 0)
        host = self.zone_hosts[zone]
        submitted_at = self.sim.now

        def evaluate() -> None:
            result = action.apply(self.state)
            self.state.merge(result.values())
            self.stats.actions_evaluated += 1
            self._track_handoff(src)
            self._fan_out(zone, action, result, submitted_at)

        host.execute(action.cost_ms + self.config.eval_overhead_ms, evaluate)

    def _track_handoff(self, client_id: ClientId) -> None:
        new_zone = self._zone_of_client(client_id)
        if new_zone != self._client_zone.get(client_id):
            self._client_zone[client_id] = new_zone
            self.stats.handoffs += 1

    def _fan_out(
        self, acting_zone: int, action: Action, result: ActionResult,
        submitted_at: TimeMs,
    ) -> None:
        update = StateUpdate(
            result.written, cause=action.action_id, submitted_at=submitted_at
        )
        size = wire_size(update)
        for client_id in self.clients:
            if client_id != action.client_id and not self._interested(
                client_id, action.position
            ):
                continue
            if self._client_zone.get(client_id) != acting_zone:
                self.stats.cross_zone_updates += 1
            self.network.send(SERVER_ID, client_id, update, size)
            self.stats.updates_sent += 1

    def _interested(self, client_id: ClientId, position: Optional[Vec2]) -> bool:
        if self.interest_radius is None or position is None:
            return True
        client_position = self._client_position(client_id)
        if client_position is None:
            return True
        return client_position.distance_to(position) <= self.interest_radius

    # ------------------------------------------------------------------
    # Client side: thin views, as in Central
    # ------------------------------------------------------------------
    def _on_client_message(
        self, client: BaselineClient, src: ClientId, payload: object
    ) -> None:
        if not isinstance(payload, StateUpdate):
            raise ProtocolError(f"zoned client: unexpected {type(payload).__name__}")

        def install() -> None:
            client.store.merge({oid: dict(attrs) for oid, attrs in payload.values})
            client.evaluated += 1
            if (
                payload.cause is not None
                and payload.cause.client_id == client.client_id
            ):
                client.note_confirmed(payload.cause)

        client.host.execute(self.UPDATE_APPLY_COST_MS, install)

    @property
    def busiest_zone_utilization(self) -> float:
        """CPU utilisation of the most loaded zone server."""
        return max(host.utilization() for host in self.zone_hosts)

