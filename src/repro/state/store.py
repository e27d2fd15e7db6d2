"""Object store: the in-memory database holding a (possibly partial)
replica of the world state.

Clients under the Incomplete World Model hold *partial* replicas — they
only store objects the server has shipped to them — so lookups of absent
objects raise :class:`~repro.errors.MissingObjectError` rather than
returning defaults, and the protocol layer treats that as "this replica
does not know the object" (never as "the object does not exist").
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, Iterator, Optional

from repro.errors import MissingObjectError
from repro.state.objects import WorldObject
from repro.types import AttrValue, ObjectId

#: A values payload: object id -> attribute dict.  This is the unit that
#: blind writes carry and that action results are expressed in.
ValuesDict = Dict[ObjectId, Dict[str, AttrValue]]


class ObjectStore:
    """Mutable mapping of object ids to :class:`WorldObject`.

    Supports the operations the protocols need: bulk reads of a read
    set (:meth:`values_of`), bulk installation of a blind write
    (:meth:`install`), independent snapshots, and content checksums for
    cheap cross-replica consistency comparison.
    """

    #: RW-set sanitizer hook (docs/static_analysis.md).  ``None`` on the
    #: plain store; :class:`repro.analysis.sanitizer.SanitizedStore`
    #: overrides it with a method returning a per-action scope.
    #: :meth:`Action.apply` consults it with a single attribute load, so
    #: unsanitized stores pay nothing beyond one ``is None`` test.
    action_scope = None

    def __init__(self, objects: Iterable[WorldObject] = ()) -> None:
        self._objects: Dict[ObjectId, WorldObject] = {}
        for obj in objects:
            self.put(obj)

    # -- basic access ---------------------------------------------------
    def get(self, oid: ObjectId) -> WorldObject:
        """The object with id ``oid``; raises :class:`MissingObjectError`
        when this replica does not hold it."""
        try:
            return self._objects[oid]
        except KeyError:
            raise MissingObjectError(oid) from None

    def put(self, obj: WorldObject) -> None:
        """Insert or replace an object."""
        self._objects[obj.oid] = obj

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[ObjectId]:
        return iter(self._objects)

    def objects(self) -> Iterator[WorldObject]:
        """Iterate over the stored objects."""
        return iter(self._objects.values())

    def ids(self) -> frozenset[ObjectId]:
        """Frozen set of all object ids in the store."""
        return frozenset(self._objects)

    # -- bulk protocol operations ----------------------------------------
    def values_of(self, oids: Iterable[ObjectId]) -> ValuesDict:
        """Read the current values of ``oids`` — the ζ(S) of the paper.

        Raises :class:`MissingObjectError` on the first absent id.
        Returned dicts are copies; mutating them does not touch the
        store.
        """
        return {oid: self.get(oid).as_dict() for oid in oids}

    def values_of_present(self, oids: Iterable[ObjectId]) -> ValuesDict:
        """Like :meth:`values_of` but silently skips absent ids.

        Used when seeding blind writes for clients that may already hold
        a subset of the read set.
        """
        return {
            oid: self._objects[oid].as_dict() for oid in oids if oid in self._objects
        }

    def install(self, values: ValuesDict) -> None:
        """Blind-write ``values`` into the store (W(S, v) of the paper).

        Objects absent from the replica are created; present objects
        are replaced wholesale.  Use this for payloads that carry a
        *complete* object state (blind writes do); for the partial
        attribute writes that action results carry, use :meth:`merge`.
        """
        for oid, attrs in values.items():
            self._objects[oid] = WorldObject(oid, attrs)

    def merge(self, values: ValuesDict) -> None:
        """Merge partial attribute writes into the store.

        Present objects keep their other attributes; absent objects are
        created from the given attributes alone (a replica learning an
        object through a partial write knows only what it was sent).
        """
        for oid, attrs in values.items():
            existing = self._objects.get(oid)
            if existing is None:
                self._objects[oid] = WorldObject(oid, attrs)
            else:
                existing.update(attrs)

    # -- snapshots & checksums -------------------------------------------
    def snapshot(self) -> "ObjectStore":
        """Independent deep copy of the store."""
        clone = ObjectStore()
        for oid, obj in self._objects.items():
            clone._objects[oid] = obj.copy()
        return clone

    def checksum(self, oids: Optional[Iterable[ObjectId]] = None) -> int:
        """Order-independent CRC of the (selected) object states.

        Two replicas that agree on a set of objects produce identical
        checksums over that set; this is how the consistency checker
        compares ζ_CS across 64 clients without shipping full states.
        """
        selected = sorted(self._objects if oids is None else oids)
        crc = 0
        for oid in selected:
            token = repr((oid, self.get(oid).state_token())).encode()
            crc = zlib.crc32(token, crc)
        return crc

    def diff(self, other: "ObjectStore") -> Dict[ObjectId, str]:
        """Human-readable description of where two stores disagree.

        Only ids present in *both* stores are compared for value
        divergence; ids present in exactly one store are reported as
        ``only-in-self`` / ``only-in-other``.  Used by tests and the
        consistency checker to explain violations.
        """
        report: Dict[ObjectId, str] = {}
        for oid in self.ids() | other.ids():
            in_self = oid in self
            in_other = oid in other
            if in_self and not in_other:
                report[oid] = "only-in-self"
            elif in_other and not in_self:
                report[oid] = "only-in-other"
            elif self.get(oid) != other.get(oid):
                report[oid] = (
                    f"value mismatch: {self.get(oid).as_dict()!r} "
                    f"vs {other.get(oid).as_dict()!r}"
                )
        return report

    def __repr__(self) -> str:
        return f"ObjectStore({len(self._objects)} objects)"


class OverlayStore(ObjectStore):
    """A store that reads through to ``base`` except where it holds a
    private copy: a client's optimistic replica ζ_CO over its stable
    ζ_CS, holding only the objects its pending actions write.

    :meth:`hold` copies objects from ``base`` before they are written
    here (copy-on-write); an id ``base`` lacks is held as absent, so it
    stays absent here until :meth:`release`.  :meth:`get`, ``in`` and
    :meth:`objects` see the overlay over ``base``; ``get`` and ``in``
    ask ``base`` first, whose :attr:`action_scope` the overlay shares,
    so a sanitized base checks reads of held copies too.  An evaluation
    writes held copies in place, through :meth:`get`; the rest of the
    store's surface (``len``, :meth:`ids`, the bulk writers) sees the
    held copies alone.  No store drops an object, so ``base`` holds
    every object held here.
    """

    def __init__(self, base: ObjectStore) -> None:
        super().__init__()
        self.base = base
        self.action_scope = base.action_scope

    def get(self, oid: ObjectId) -> WorldObject:
        obj = self._objects.get(oid, self.base.get(oid))
        if obj is None:
            raise MissingObjectError(oid)
        return obj

    def __contains__(self, oid: ObjectId) -> bool:
        return oid in self.base and self._objects.get(oid, oid) is not None

    def objects(self) -> Iterator[WorldObject]:
        merged = {**self.base._objects, **self._objects}
        for oid, obj in self._objects.items():
            if obj is None:
                del merged[oid]
        return iter(merged.values())

    def hold(self, oids: Iterable[ObjectId]) -> None:
        """Take private copies of ``oids`` not held yet."""
        for oid in oids:
            if oid not in self._objects:
                obj = self.base._objects.get(oid)
                self._objects[oid] = None if obj is None else obj.copy()

    def release(self, oids: Optional[Iterable[ObjectId]] = None) -> None:
        """Drop the private copies of ``oids`` (of all, by default)."""
        for oid in list(self._objects) if oids is None else oids:
            self._objects.pop(oid, None)
