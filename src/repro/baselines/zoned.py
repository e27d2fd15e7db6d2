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

The zoned engine *is* the Central engine on a grid of zone CPUs: it
overrides only which CPU evaluates an action (the acting client's
zone's) and what it counts afterwards (zone handoffs and cross-zone
updates).  Evaluation, the interest fan-out and the thin clients are
Central's, so a run whose clients never leave one zone measures exactly
like ``central``.  The zone CPUs are registered as server hosts, so
their evaluation counts towards the run's total CPU.  Cross-zone
visibility falls out of the one interest rule, which ignores tiles (the
paper notes "great complications arise from attempts to overlap zones" —
our overlap is the minimal correct one: interest regions may span zones,
actions do not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.baselines.central import CentralEngine, CentralStats
from repro.baselines.common import BaselineConfig
from repro.errors import ConfigurationError
from repro.net.host import Host
from repro.types import SERVER_ID, ClientId
from repro.world.base import World
from repro.world.geometry import Vec2


@dataclass
class ZonedStats(CentralStats):
    """Central's counters plus the zoning ones."""

    handoffs: int = 0
    cross_zone_updates: int = 0


class ZonedCentralEngine(CentralEngine):
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
        super().__init__(world, num_clients, config, interest_radius=interest_radius)
        self.zone_grid = zone_grid
        self.world_width = world_width
        self.world_height = world_height
        self.stats = ZonedStats()
        #: One CPU per zone server (ids below SERVER_ID are synthetic),
        #: measured like any server's: zone ``z`` is server host ``z + 1``.
        self.zone_hosts: List[Host] = [
            Host(self.sim, SERVER_ID - 1 - index)
            for index in range(zone_grid * zone_grid)
        ]
        self.server_hosts.update(
            (zone + 1, host) for zone, host in enumerate(self.zone_hosts)
        )
        #: Current zone of each client's avatar (tracked authoritatively).
        self._client_zone: Dict[ClientId, int] = {
            client_id: self._zone_of_client(client_id) for client_id in self.clients
        }

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
        position = self._position(client_id)
        return self.zone_of_point(position) if position is not None else 0

    def zone_population(self) -> Dict[int, int]:
        """Clients per zone (authoritative view)."""
        population: Dict[int, int] = {}
        for zone in self._client_zone.values():
            population[zone] = population.get(zone, 0) + 1
        return population

    # ------------------------------------------------------------------
    # What differs from Central: the evaluating CPU and the counters
    # ------------------------------------------------------------------
    def _evaluator(self, src: ClientId) -> Host:
        """The acting client's zone CPU."""
        return self.zone_hosts[self._client_zone.get(src, 0)]

    def _evaluated(self, src: ClientId, host: Host, recipients: List[ClientId]) -> None:
        super()._evaluated(src, host, recipients)
        new_zone = self._zone_of_client(src)
        if new_zone != self._client_zone.get(src):
            self._client_zone[src] = new_zone
            self.stats.handoffs += 1
        acting_zone = self.zone_hosts.index(host)
        self.stats.cross_zone_updates += sum(
            self._client_zone.get(client_id) != acting_zone for client_id in recipients
        )

    @property
    def busiest_zone_utilization(self) -> float:
        """CPU utilisation of the most loaded zone server."""
        return max(host.utilization() for host in self.zone_hosts)
