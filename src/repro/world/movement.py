"""Movement in the Manhattan People world.

A :class:`MoveAction` advances an avatar along its heading for a fixed
duration; if the path hits a wall, another avatar, or the world border,
the avatar stops and turns 90° (the paper's bump rule).  The action's
read set is the moving avatar plus the avatars the originating client
*declared* as potential collisions (those it knew to be within the move
effect range); its write set is the moving avatar alone.

Determinism: the computation consults only (a) the declared read set's
values in the store it is applied to, (b) the immutable
:class:`~repro.world.walls.WallField`, and (c) the action's own id (for
the bounce direction), so every replica evaluates it identically.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional

from repro.core.action import ABORT_RESULT, Action, ActionId, ActionResult
from repro.errors import ActionAborted
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore, ValuesDict
from repro.types import AttrValue, ObjectId
from repro.world.geometry import Vec2, reflect_heading_90
from repro.world.walls import WallField

#: Two avatars closer than this collide (world units).
COLLISION_DISTANCE = 2.0


class _Evaluation(NamedTuple):
    """One evaluation of a move: the values it consulted, in the order
    it consulted them, and what it wrote."""

    #: :func:`_mover_key` of the avatar.
    mover: tuple
    #: :func:`_neighbor_key` of each neighbour the collision scan read,
    #: up to the one that stopped it — or to a final ``None`` when it
    #: read past them all.  Empty when no scan ran (a dead mover, or
    #: one the walls stopped).
    seen: tuple
    #: The attributes written back to the avatar; ``None``: aborted.
    written: Optional[Dict[str, AttrValue]]
    result: ActionResult


# The keys are read straight from the attribute dict: one call per object
# on the path every recipient of a move runs, instead of one
# ``WorldObject.get`` per attribute.
def _mover_key(me: WorldObject) -> tuple:
    attrs = me._attrs
    return (
        attrs.get("x"), attrs.get("y"), attrs.get("heading"), attrs.get("speed"),
        attrs.get("alive", True), attrs.get("bumps", 0),
    )


def _neighbor_key(other: Optional[WorldObject]) -> Optional[tuple]:
    if other is None:
        return None
    attrs = other._attrs
    return (attrs.get("x"), attrs.get("y"), attrs.get("alive", True))


def _exact(evaluation: _Evaluation) -> bool:
    """Whether keys equal to ``evaluation``'s hold the same inputs: not
    when one holds a zero (``0.0 == -0.0``) or a NaN (which a tuple
    compares equal to itself)."""
    numbers = [*evaluation.mover[:4]]
    for key in evaluation.seen:
        if key is not None:
            numbers += key[:2]
    return all(number and number == number for number in numbers)


def _noting(others: Iterable[WorldObject], seen: List[Optional[tuple]]):
    """``others``, appending each one's key to ``seen`` as it is read and
    a final ``None`` if all of them are."""
    for other in others:
        seen.append(_neighbor_key(other))
        yield other
    seen.append(None)


def _collides(others: Iterable[WorldObject], target: Vec2) -> bool:
    """Whether a live one of ``others`` stands within collision distance
    of ``target``; stops reading at the first that does."""
    for other in others:
        if not other.get("alive", True):
            continue
        other_pos = Vec2(float(other["x"]), float(other["y"]))
        if other_pos.distance_to(target) < COLLISION_DISTANCE:
            return True
    return False


class MoveAction(Action):
    """Advance an avatar for ``duration_s`` seconds of travel."""

    def __init__(
        self,
        action_id: ActionId,
        avatar_oid: ObjectId,
        *,
        neighbors: FrozenSet[ObjectId],
        walls: WallField,
        duration_s: float,
        effect_range: float,
        position: Vec2,
        velocity: Optional[Vec2] = None,
        cost_ms: float = 0.0,
    ) -> None:
        super().__init__(
            action_id,
            reads=frozenset({avatar_oid}) | neighbors,
            writes=frozenset({avatar_oid}),
            position=position,
            radius=effect_range,
            velocity=velocity,
            cost_ms=cost_ms,
        )
        self.avatar_oid = avatar_oid
        self.neighbors = neighbors
        #: The other avatars to test for collision, in the one order
        #: every replica tests them.
        self._others = tuple(sorted(neighbors - {avatar_oid}))
        self.walls = walls
        self.duration_s = duration_s
        #: The last evaluation.  Every replica is handed this same object
        #: and, by Theorem 1, reads the same inputs, so all but the first
        #: evaluation repeat one already made.  The result is a pure
        #: function of the values consulted (the field is immutable), so
        #: a replica that reads those values again gets the same result
        #: without recomputing it, and one whose values differ (an
        #: optimistic guess, a rejoiner) evaluates.
        self._last: Optional[_Evaluation] = None

    def _apply(self, store: ObjectStore) -> ActionResult:
        """Reread the inputs the last evaluation consulted, in test order,
        and repeat its write-back and result if each reads the same;
        evaluate on from the first that differs.  Either way the store
        sees the reads an evaluation from scratch makes, in its order."""
        me = store.get(self.avatar_oid)
        mover = _mover_key(me)
        others = self._neighbor_states(store)
        last = self._last
        seen: List[Optional[tuple]] = []
        if last is not None and mover == last.mover:
            for at, key in enumerate(last.seen):
                other = next(others, None)
                if _neighbor_key(other) != key:
                    # The neighbours before this one still miss the target.
                    seen = list(last.seen[:at])
                    if other is not None:
                        others = chain((other,), others)
                    break
            else:
                if last.written is not None:
                    store.get(self.avatar_oid).update(last.written)
                return last.result
        try:
            values = self.compute(store, me, _noting(others, seen))
        except ActionAborted:
            written, result = None, ABORT_RESULT
        else:
            written, result = values[self.avatar_oid], self._write_back(store, values)
        self._last = _Evaluation(mover, tuple(seen), written, result)
        if not _exact(self._last):
            self._last = None
        return result

    def compute(
        self,
        store: ObjectStore,
        me: WorldObject,
        others: Iterator[WorldObject],
    ) -> ValuesDict:
        """The move's values: bumped by the border, a wall or a live
        neighbour at the target, else advanced.  ``me`` and ``others`` —
        the avatar and the neighbours still to test — are what
        :meth:`_apply` has begun reading from ``store``."""
        if not me.get("alive", True):
            raise ActionAborted(f"{self.avatar_oid} is dead")  # combat worlds
        start = Vec2(float(me["x"]), float(me["y"]))
        heading = float(me["heading"])
        speed = float(me["speed"])
        step = Vec2.from_heading(heading).scaled(speed * self.duration_s)
        target = start + step

        last = self._last
        if last is not None and last.mover == _mover_key(me):
            walled = not last.seen  # only a move the walls let through scans
        else:
            walled = self.walls.path_blocked(start, target)
        bumped = walled or _collides(others, target)
        values: Dict[str, AttrValue]
        if bumped:
            sign = 1 if self.stable_nonce() % 2 == 0 else -1
            values = {
                "x": start.x,
                "y": start.y,
                "heading": reflect_heading_90(heading, sign),
                "bumps": int(me.get("bumps", 0)) + 1,
            }
        else:
            values = {
                "x": target.x,
                "y": target.y,
                "heading": heading,
                "bumps": int(me.get("bumps", 0)),
            }
        return {self.avatar_oid: values}

    def _neighbor_states(self, store: ObjectStore) -> Iterator[WorldObject]:
        """The declared neighbours as ``store`` holds them, lazily and
        in collision-test order (a read per avatar actually tested)."""
        for neighbor_oid in self._others:
            yield store.get(neighbor_oid)

    def __repr__(self) -> str:
        return (
            f"MoveAction({self.action_id!r}, {self.avatar_oid}, "
            f"neighbors={len(self.neighbors)})"
        )
