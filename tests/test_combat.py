"""Unit tests for the combat world and its semantic actions."""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import SanitizedStore
from repro.core.action import ActionId
from repro.state.store import ObjectStore
from repro.world.avatar import avatar_id, avatar_object
from repro.world.combat import (
    CombatConfig,
    CombatWorld,
    HealAction,
    ScryingSpellAction,
    ShootArrowAction,
)
from repro.world.geometry import Vec2


def arena(*healths, positions=None):
    objects = []
    for index, health in enumerate(healths):
        pos = (positions or {}).get(index, Vec2(10.0 * index, 0.0))
        obj = avatar_object(index, pos, health=health)
        objects.append(obj)
    return SanitizedStore(objects)


def aid(seq=0, client=0):
    return ActionId(client, seq)


# ---------------------------------------------------------------------------
# ShootArrowAction
# ---------------------------------------------------------------------------
def shoot(shooter, target, damage=25, seq=0):
    return ShootArrowAction(
        aid(seq, shooter),
        avatar_id(shooter),
        avatar_id(target),
        damage=damage,
        position=Vec2(0, 0),
        shot_range=40.0,
    )


def test_arrow_damages_target():
    store = arena(100, 100)
    shoot(0, 1).apply(store)
    assert store.get(avatar_id(1))["health"] == 75
    assert store.get(avatar_id(1))["alive"] is True


def test_arrow_kills_at_zero_health():
    store = arena(100, 20)
    shoot(0, 1).apply(store)
    target = store.get(avatar_id(1))
    assert target["health"] == 0
    assert target["alive"] is False


def test_dead_shooter_fizzles():
    store = arena(100, 100)
    store.get(avatar_id(0))["alive"] = False
    result = shoot(0, 1).apply(store)
    assert result.aborted
    assert store.get(avatar_id(1))["health"] == 100


def test_arrow_into_corpse_is_noop():
    store = arena(100, 100)
    store.get(avatar_id(1))["alive"] = False
    result = shoot(0, 1).apply(store)
    assert not result.aborted
    assert result.values() == {}


def test_arrow_sets():
    action = shoot(0, 1)
    assert action.reads == frozenset({avatar_id(0), avatar_id(1)})
    assert action.writes == frozenset({avatar_id(1)})
    assert action.interest_class == "combat"


def test_negative_damage_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        shoot(0, 1, damage=-1)


# ---------------------------------------------------------------------------
# HealAction
# ---------------------------------------------------------------------------
def heal(healer, target, amount=20):
    return HealAction(
        aid(0, healer),
        avatar_id(healer),
        avatar_id(target),
        amount=amount,
        position=Vec2(0, 0),
        heal_range=40.0,
    )


def test_heal_restores_capped_at_100():
    store = arena(100, 50)
    heal(0, 1, amount=30).apply(store)
    assert store.get(avatar_id(1))["health"] == 80
    heal(0, 1, amount=75).apply(store)
    assert store.get(avatar_id(1))["health"] == 100


def test_heal_cannot_resurrect():
    store = arena(100, 100)
    store.get(avatar_id(1))["alive"] = False
    result = heal(0, 1).apply(store)
    assert result.values() == {}


def test_dead_healer_fizzles():
    store = arena(100, 50)
    store.get(avatar_id(0))["alive"] = False
    assert heal(0, 1).apply(store).aborted


# ---------------------------------------------------------------------------
# ScryingSpellAction — the paper's Section I example
# ---------------------------------------------------------------------------
def scry(healer, candidates, amount=30):
    return ScryingSpellAction(
        aid(0, healer),
        avatar_id(healer),
        frozenset(avatar_id(c) for c in candidates),
        amount=amount,
        position=Vec2(0, 0),
        spell_range=40.0,
    )


def test_scrying_heals_most_wounded():
    store = arena(100, 80, 35, 60)
    scry(0, [1, 2, 3]).apply(store)
    assert store.get(avatar_id(2))["health"] == 65  # 35 + 30
    assert store.get(avatar_id(1))["health"] == 80  # untouched


def test_scrying_write_target_is_data_dependent():
    """The same spell heals a different avatar when the crowd's health
    changes first — the reason visibility filtering breaks."""
    spell = scry(0, [1, 2])
    before = arena(100, 80, 90)
    spell.apply(before)
    assert before.get(avatar_id(1))["health"] == 100  # 80 was lowest

    # Same spell, but avatar 2 took a hit below avatar 1's health first:
    after = arena(100, 80, 90)
    after.get(avatar_id(2))["health"] = 10
    spell.apply(after)
    assert after.get(avatar_id(2))["health"] == 40  # now 2 was lowest
    assert after.get(avatar_id(1))["health"] == 80


def test_scrying_skips_dead_and_ties_break_deterministically():
    store = arena(100, 50, 50)
    store.get(avatar_id(1))["alive"] = False
    scry(0, [1, 2]).apply(store)
    assert store.get(avatar_id(2))["health"] == 80
    tie = arena(100, 50, 50)
    scry(0, [1, 2]).apply(tie)
    assert tie.get(avatar_id(1))["health"] == 80  # lowest oid wins ties


def test_dead_healer_scrying_fails():
    store = arena(100, 50)
    store.get(avatar_id(0))["alive"] = False
    assert scry(0, [1]).apply(store).aborted
    assert store.get(avatar_id(1))["health"] == 50


def test_scrying_with_everyone_dead_is_noop():
    store = arena(100, 50)
    store.get(avatar_id(1))["alive"] = False
    result = scry(0, [1]).apply(store)
    assert result.values() == {}


def test_scrying_declares_whole_crowd_as_writes():
    spell = scry(0, [1, 2, 3])
    assert spell.writes == frozenset({avatar_id(1), avatar_id(2), avatar_id(3)})
    assert avatar_id(0) in spell.reads


# ---------------------------------------------------------------------------
# CombatWorld
# ---------------------------------------------------------------------------
def test_world_basics():
    world = CombatWorld(6, CombatConfig(seed=3))
    objects = list(world.initial_objects())
    assert len(objects) == 6
    assert world.avatar_of(5) == avatar_id(5)
    assert world.avatar_of(6) is None
    assert world.max_speed == world.config.avatar_speed
    assert world.client_radius(0) == world.config.combat_range


def test_world_species_assignment():
    world = CombatWorld(10, CombatConfig(insect_fraction=0.4, seed=1))
    species = [world.species_of(i) for i in range(10)]
    assert species.count("insect") == 4
    assert species.count("human") == 6
    for obj in world.initial_objects():
        assert obj["species"] in ("human", "insect")


def test_plan_shot_builds_velocity_towards_target():
    world = CombatWorld(2, CombatConfig(seed=0))
    store = ObjectStore(world.initial_objects())
    action = world.plan_shot(store, 0, 1, aid(0, 0))
    assert action.velocity is not None
    assert action.damage == world.config.max_damage


def test_plan_scrying_over_crowd():
    world = CombatWorld(4, CombatConfig(seed=0))
    store = ObjectStore(world.initial_objects())
    spell = world.plan_scrying(store, 0, [1, 2, 3], aid(1, 0))
    assert spell.writes == frozenset(avatar_id(i) for i in (1, 2, 3))


def test_plan_move_tagged_with_species():
    world = CombatWorld(4, CombatConfig(insect_fraction=1.0, seed=0))
    store = ObjectStore(world.initial_objects())
    action = world.plan_move(store, 0, aid(0, 0))
    assert action.interest_class == "insect"
