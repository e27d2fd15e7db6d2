"""Fantasy-MMO combat: the paper's motivating semantic actions.

Three action families drive the paper's argument that consistency is
*semantic*, not syntactic:

* :class:`ShootArrowAction` — ranged damage.  The Figure 2/3 anomaly:
  under visibility filtering, B can "shoot" A after C's arrow already
  killed B, because the client simulating A never saw C's shot.
* :class:`HealAction` — targeted healing.
* :class:`ScryingSpellAction` — the Section I scrying spell: heal the
  *most wounded* ally in a crowd.  Its read set spans the whole crowd
  and its write target depends on the read values, which makes
  character-visibility partitioning useless (the spell's effect can
  depend on combat far outside the caster's sight).

The :class:`CombatWorld` is an open arena (no walls) whose avatars carry
health and a species tag; species tags map to interest classes, giving
the Section IV-A inconsequential-action-elimination ablation a natural
workload (humans do not subscribe to insect chatter).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence

from repro.core.action import Action, ActionId
from repro.errors import ActionAborted, ConfigurationError
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore, ValuesDict
from repro.types import ClientId, ObjectId
from repro.world.avatar import avatar_id, avatar_object, avatar_position
from repro.world.base import World
from repro.world.geometry import Vec2
from repro.world.movement import MoveAction
from repro.world.walls import WallField


class ShootArrowAction(Action):
    """Shoot an arrow at a target: damage it, possibly killing it.

    Reads shooter (a dead shooter's arrow fizzles — the causality that
    the Figure 3 timeline hinges on) and target; writes the target.
    """

    interest_class = "combat"

    def __init__(
        self,
        action_id: ActionId,
        shooter_oid: ObjectId,
        target_oid: ObjectId,
        *,
        damage: int,
        position: Vec2,
        shot_range: float,
        velocity: Optional[Vec2] = None,
        cost_ms: float = 0.0,
    ) -> None:
        if damage < 0:
            raise ConfigurationError(f"damage must be >= 0, got {damage}")
        super().__init__(
            action_id,
            reads=frozenset({shooter_oid, target_oid}),
            writes=frozenset({target_oid}),
            position=position,
            radius=shot_range,
            velocity=velocity,
            cost_ms=cost_ms,
        )
        self.shooter_oid = shooter_oid
        self.target_oid = target_oid
        self.damage = damage

    def compute(self, store: ObjectStore) -> ValuesDict:
        shooter = store.get(self.shooter_oid)
        if not shooter.get("alive", True):
            raise ActionAborted(f"{self.shooter_oid} is dead; the arrow fizzles")
        target = store.get(self.target_oid)
        if not target.get("alive", True):
            return {}  # already dead: the arrow lands in a corpse
        health = int(target["health"]) - self.damage
        return {
            self.target_oid: {
                "health": max(0, health),
                "alive": health > 0,
            }
        }


class HealAction(Action):
    """Heal a specific target by a fixed amount (cannot exceed 100)."""

    interest_class = "combat"

    def __init__(
        self,
        action_id: ActionId,
        healer_oid: ObjectId,
        target_oid: ObjectId,
        *,
        amount: int,
        position: Vec2,
        heal_range: float,
        cost_ms: float = 0.0,
    ) -> None:
        super().__init__(
            action_id,
            reads=frozenset({healer_oid, target_oid}),
            writes=frozenset({target_oid}),
            position=position,
            radius=heal_range,
            cost_ms=cost_ms,
        )
        self.healer_oid = healer_oid
        self.target_oid = target_oid
        self.amount = amount

    def compute(self, store: ObjectStore) -> ValuesDict:
        healer = store.get(self.healer_oid)
        if not healer.get("alive", True):
            raise ActionAborted(f"{self.healer_oid} is dead; the heal fizzles")
        target = store.get(self.target_oid)
        if not target.get("alive", True):
            return {}  # healing cannot resurrect
        return {
            self.target_oid: {
                "health": min(100, int(target["health"]) + self.amount)
            }
        }


class ScryingSpellAction(Action):
    """Identify and heal the most wounded living ally in a crowd.

    The write target is *data dependent* — it is whichever candidate has
    the least health at stable-evaluation time — so the declared write
    set must conservatively cover the whole crowd.  This is precisely
    the action class for which the paper argues visibility-based
    filtering cannot work: every attack anywhere in the crowd changes
    who the spell heals.
    """

    interest_class = "combat"

    def __init__(
        self,
        action_id: ActionId,
        healer_oid: ObjectId,
        candidates: FrozenSet[ObjectId],
        *,
        amount: int,
        position: Vec2,
        spell_range: float,
        cost_ms: float = 0.0,
    ) -> None:
        super().__init__(
            action_id,
            reads=frozenset({healer_oid}) | candidates,
            writes=frozenset(candidates),
            position=position,
            radius=spell_range,
            cost_ms=cost_ms,
        )
        self.healer_oid = healer_oid
        self.candidates = candidates
        self.amount = amount

    def compute(self, store: ObjectStore) -> ValuesDict:
        healer = store.get(self.healer_oid)
        if not healer.get("alive", True):
            raise ActionAborted(f"{self.healer_oid} is dead; the scrying fails")
        most_wounded: Optional[ObjectId] = None
        least_health = 101
        for oid in sorted(self.candidates):  # deterministic tie-break
            candidate = store.get(oid)
            if not candidate.get("alive", True):
                continue
            health = int(candidate["health"])
            if health < least_health:
                least_health = health
                most_wounded = oid
        if most_wounded is None:
            return {}  # nobody left to heal
        return {
            most_wounded: {"health": min(100, least_health + self.amount)}
        }


@dataclass(frozen=True)
class CombatConfig:
    """Arena parameters."""

    width: float = 200.0
    height: float = 200.0
    avatar_speed: float = 5.0
    #: Maximum arrow/heal/spell reach, world units.
    combat_range: float = 40.0
    #: Maximum damage per attack (the paper's semantic bound on how
    #: fast health can change).
    max_damage: int = 25
    #: Fraction of avatars tagged as "insect" (the rest are "human").
    insect_fraction: float = 0.0
    seed: int = 0


class CombatWorld(World):
    """An open arena of avatars with health, teams and species."""

    def __init__(self, num_avatars: int, config: Optional[CombatConfig] = None):
        self.config = config or CombatConfig()
        self.num_avatars = num_avatars
        cfg = self.config
        self.walls = WallField((), width=cfg.width, height=cfg.height)
        rng = random.Random(cfg.seed)
        self._spawns = [
            Vec2(
                rng.uniform(cfg.width * 0.25, cfg.width * 0.75),
                rng.uniform(cfg.height * 0.25, cfg.height * 0.75),
            )
            for _ in range(num_avatars)
        ]
        self._headings = [rng.uniform(-math.pi, math.pi) for _ in range(num_avatars)]
        insect_count = int(round(num_avatars * cfg.insect_fraction))
        self._species = ["insect"] * insect_count + ["human"] * (
            num_avatars - insect_count
        )
        rng.shuffle(self._species)

    # -- World interface ----------------------------------------------------
    def initial_objects(self) -> Iterable[WorldObject]:
        for index in range(self.num_avatars):
            obj = avatar_object(
                index,
                self._spawns[index],
                heading=self._headings[index],
                speed=self.config.avatar_speed,
            )
            obj["species"] = self._species[index]
            yield obj

    def avatar_of(self, client_id: ClientId) -> Optional[ObjectId]:
        if 0 <= client_id < self.num_avatars:
            return avatar_id(client_id)
        return None

    @property
    def max_speed(self) -> float:
        return self.config.avatar_speed

    def client_radius(self, client_id: ClientId) -> float:
        return self.config.combat_range

    def species_of(self, client_id: ClientId) -> str:
        """Species tag of the client's avatar ("human" or "insect")."""
        return self._species[client_id]

    # -- action planners ------------------------------------------------------
    def plan_shot(
        self,
        store: ObjectStore,
        shooter: ClientId,
        target: ClientId,
        action_id: ActionId,
        *,
        damage: Optional[int] = None,
        cost_ms: float = 0.0,
    ) -> ShootArrowAction:
        """Plan an arrow from ``shooter`` at ``target``."""
        shooter_oid = avatar_id(shooter)
        target_oid = avatar_id(target)
        position = avatar_position(store.get(shooter_oid))
        velocity = None
        if target_oid in store:
            target_pos = avatar_position(store.get(target_oid))
            direction = (target_pos - position).normalized()
            velocity = direction.scaled(self.config.combat_range)  # arrow speed
        return ShootArrowAction(
            action_id,
            shooter_oid,
            target_oid,
            damage=damage if damage is not None else self.config.max_damage,
            position=position,
            shot_range=self.config.combat_range,
            velocity=velocity,
            cost_ms=cost_ms,
        )

    def plan_scrying(
        self,
        store: ObjectStore,
        healer: ClientId,
        candidates: Sequence[ClientId],
        action_id: ActionId,
        *,
        amount: int = 30,
        cost_ms: float = 0.0,
    ) -> ScryingSpellAction:
        """Plan the scrying spell over a crowd of candidate allies."""
        healer_oid = avatar_id(healer)
        position = avatar_position(store.get(healer_oid))
        return ScryingSpellAction(
            action_id,
            healer_oid,
            frozenset(avatar_id(c) for c in candidates),
            amount=amount,
            position=position,
            spell_range=self.config.combat_range,
            cost_ms=cost_ms,
        )

    def plan_move(
        self,
        store: ObjectStore,
        client_id: ClientId,
        action_id: ActionId,
        *,
        cost_ms: float = 0.0,
        duration_s: float = 0.3,
    ) -> MoveAction:
        """Plan a walk (species-tagged for the interest ablation)."""
        me_oid = avatar_id(client_id)
        me = store.get(me_oid)
        position = avatar_position(me)
        action = MoveAction(
            action_id,
            me_oid,
            neighbors=frozenset(),
            walls=self.walls,
            duration_s=duration_s,
            effect_range=2.0,
            position=position,
            velocity=Vec2.from_heading(float(me["heading"])).scaled(
                float(me["speed"])
            ),
            cost_ms=cost_ms,
        )
        action.interest_class = self.species_of(client_id)
        return action
