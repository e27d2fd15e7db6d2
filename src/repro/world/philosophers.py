"""The Dining Philosophers world — Section III-E's worst case.

*n* participants sit on a ring ("located on earth's equator"), each
trying to grab the fork to their left and right.  Direct conflicts never
involve more than two participants, but if everyone grabs in the same
tick, the transitive closure of conflicts encompasses the entire ring —
the paper's proof that the number of uncommitted actions that can
(indirectly) conflict with a given action is unbounded.

The Information Bound Model breaks the ring: philosophers are placed at
physical positions along the circle, so once a conflict chain stretches
farther than the threshold, the chain-closing grab is dropped, cutting
the world-spanning closure into bounded arcs while still committing the
vast majority of grabs (the paper argues dropping *all* simultaneous
grabs would be suboptimal — a few cuts suffice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.action import Action, ActionId
from repro.errors import ConfigurationError
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore, ValuesDict
from repro.types import ClientId, ObjectId, oid
from repro.world.base import World
from repro.world.geometry import Vec2

#: Attribute value of a free fork.
FORK_FREE = -1


def philosopher_id(index: int) -> ObjectId:
    """Object id of philosopher ``index``."""
    return oid("philosopher", index)


def fork_id(index: int) -> ObjectId:
    """Object id of fork ``index`` (between philosophers i-1 and i)."""
    return oid("fork", index)


class GrabForksAction(Action):
    """Try to pick up both adjacent forks; eat if both are free.

    Reads and writes the philosopher and both forks.  If either fork is
    held by someone else the grab fails benignly (the philosopher stays
    hungry) — a no-op result rather than an abort, so the protocol still
    commits it and the failure is visible in the world state.
    """

    def __init__(
        self,
        action_id: ActionId,
        philosopher_index: int,
        num_philosophers: int,
        *,
        position: Vec2,
        reach: float,
        cost_ms: float = 0.0,
    ) -> None:
        self.philosopher_index = philosopher_index
        self.left_fork = fork_id(philosopher_index)
        self.right_fork = fork_id((philosopher_index + 1) % num_philosophers)
        self.philosopher = philosopher_id(philosopher_index)
        objects = frozenset({self.philosopher, self.left_fork, self.right_fork})
        super().__init__(
            action_id,
            reads=objects,
            writes=objects,
            position=position,
            radius=reach,
            cost_ms=cost_ms,
        )

    def compute(self, store: ObjectStore) -> ValuesDict:
        left = store.get(self.left_fork)
        right = store.get(self.right_fork)
        me = store.get(self.philosopher)
        if int(left["holder"]) != FORK_FREE or int(right["holder"]) != FORK_FREE:
            return {self.philosopher: {"state": "hungry"}}
        return {
            self.left_fork: {"holder": self.philosopher_index},
            self.right_fork: {"holder": self.philosopher_index},
            self.philosopher: {
                "state": "eating",
                "meals": int(me["meals"]) + 1,
            },
        }


class ReleaseForksAction(Action):
    """Put both forks down and go back to thinking."""

    def __init__(
        self,
        action_id: ActionId,
        philosopher_index: int,
        num_philosophers: int,
        *,
        position: Vec2,
        reach: float,
        cost_ms: float = 0.0,
    ) -> None:
        self.philosopher_index = philosopher_index
        self.left_fork = fork_id(philosopher_index)
        self.right_fork = fork_id((philosopher_index + 1) % num_philosophers)
        self.philosopher = philosopher_id(philosopher_index)
        objects = frozenset({self.philosopher, self.left_fork, self.right_fork})
        super().__init__(
            action_id,
            reads=objects,
            writes=objects,
            position=position,
            radius=reach,
            cost_ms=cost_ms,
        )

    def compute(self, store: ObjectStore) -> ValuesDict:
        values: ValuesDict = {self.philosopher: {"state": "thinking"}}
        for fork_oid in (self.left_fork, self.right_fork):
            fork = store.get(fork_oid)
            if int(fork["holder"]) == self.philosopher_index:
                values[fork_oid] = {"holder": FORK_FREE}
        return values


@dataclass(frozen=True)
class PhilosophersConfig:
    """Ring geometry."""

    #: Distance between adjacent philosophers along the ring (units).
    spacing: float = 10.0
    seed: int = 0


class PhilosophersWorld(World):
    """*n* philosophers and *n* forks on a circle.

    The circle's circumference is ``n * spacing``, so adjacent conflicts
    are ``spacing`` apart while the far side of the ring is
    ``n * spacing / pi`` away — long chains physically stretch, which is
    what the Information Bound threshold cuts.
    """

    def __init__(self, num_philosophers: int, config: Optional[PhilosophersConfig] = None):
        if num_philosophers < 2:
            raise ConfigurationError("need at least 2 philosophers")
        self.config = config or PhilosophersConfig()
        self.num_philosophers = num_philosophers
        circumference = num_philosophers * self.config.spacing
        self.radius = circumference / (2.0 * math.pi)

    def seat_position(self, index: int) -> Vec2:
        """Physical position of philosopher ``index`` on the ring."""
        angle = 2.0 * math.pi * index / self.num_philosophers
        return Vec2(
            self.radius * (1.0 + math.cos(angle)),
            self.radius * (1.0 + math.sin(angle)),
        )

    # -- World interface ----------------------------------------------------
    def initial_objects(self) -> Iterable[WorldObject]:
        for index in range(self.num_philosophers):
            seat = self.seat_position(index)
            yield WorldObject(
                philosopher_id(index),
                {
                    "x": seat.x,
                    "y": seat.y,
                    "state": "thinking",
                    "meals": 0,
                },
            )
            yield WorldObject(fork_id(index), {"holder": FORK_FREE})

    def avatar_of(self, client_id: ClientId) -> Optional[ObjectId]:
        if 0 <= client_id < self.num_philosophers:
            return philosopher_id(client_id)
        return None

    @property
    def max_speed(self) -> float:
        return 0.0  # philosophers are seated

    def client_radius(self, client_id: ClientId) -> float:
        return self.config.spacing

    # -- action planners ------------------------------------------------------
    def plan_grab(
        self, client_id: ClientId, action_id: ActionId, *, cost_ms: float = 0.0
    ) -> GrabForksAction:
        """Plan a grab of both adjacent forks."""
        return GrabForksAction(
            action_id,
            client_id,
            self.num_philosophers,
            position=self.seat_position(client_id),
            reach=self.config.spacing,
            cost_ms=cost_ms,
        )

    def plan_release(
        self, client_id: ClientId, action_id: ActionId, *, cost_ms: float = 0.0
    ) -> ReleaseForksAction:
        """Plan putting both forks back down."""
        return ReleaseForksAction(
            action_id,
            client_id,
            self.num_philosophers,
            position=self.seat_position(client_id),
            reach=self.config.spacing,
            cost_ms=cost_ms,
        )
