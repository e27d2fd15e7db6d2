"""Versioned store: an :class:`ObjectStore` with per-object version
counters and a multiversion history.

Section II-B of the paper discusses timestamp-based protocols built on
multiversion serializability; the Incomplete World server also needs to
know *which committed prefix* a value belongs to when seeding blind
writes.  :class:`VersionedStore` provides both: every committed write
bumps the object's version, and every historical version is retained
for inspection (the Theorem 1 consistency checks use them to assert
that replicas only ever observe committed prefixes).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.errors import MissingObjectError
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore, ValuesDict
from repro.types import AttrValue, ObjectId

#: One retained version: (version number, commit index, attribute dict).
VersionEntry = Tuple[int, int, Dict[str, AttrValue]]


class VersionedStore(ObjectStore):
    """Object store that tracks versions and their history."""

    def __init__(self, objects: Iterable[WorldObject] = ()) -> None:
        self._versions: Dict[ObjectId, int] = {}
        self._history: Dict[ObjectId, List[VersionEntry]] = {}
        super().__init__(objects)

    # -- write paths (all funnel through put/install) --------------------
    def put(self, obj: WorldObject) -> None:
        """Insert/replace an object, bumping its version."""
        self._record_version(obj.oid, obj.as_dict(), commit_index=-1)
        super().put(obj)

    def install(self, values: ValuesDict, commit_index: int = -1) -> None:
        """Blind-write ``values``; ``commit_index`` tags the history
        entries with the commit position they correspond to (the server
        passes the installed action's queue position)."""
        for oid, attrs in values.items():
            self._record_version(oid, dict(attrs), commit_index=commit_index)
        super().install(values)

    def merge(self, values: ValuesDict, commit_index: int = -1) -> None:
        """Merge partial writes, recording the *resulting* full object
        state as the new version (history entries are always complete
        states, so replicas can be compared against them)."""
        super().merge(values)
        for oid in values:
            self._record_version(
                oid, self._objects[oid].as_dict(), commit_index=commit_index
            )

    def _record_version(
        self, oid: ObjectId, attrs: Dict[str, AttrValue], commit_index: int
    ) -> None:
        version = self._versions.get(oid, 0) + 1
        self._versions[oid] = version
        self._history.setdefault(oid, []).append((version, commit_index, attrs))

    # -- version queries --------------------------------------------------
    def version(self, oid: ObjectId) -> int:
        """Current version number of ``oid`` (1 for a fresh object)."""
        try:
            return self._versions[oid]
        except KeyError:
            raise MissingObjectError(oid) from None

    def history(self, oid: ObjectId) -> Tuple[VersionEntry, ...]:
        """Retained versions of ``oid``, oldest first."""
        return tuple(self._history.get(oid, ()))

    def snapshot(self) -> "ObjectStore":
        """Plain (unversioned) deep copy — replicas do not need history."""
        return ObjectStore(obj.copy() for obj in self.objects())
