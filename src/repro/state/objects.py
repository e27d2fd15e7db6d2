"""World objects: identified bags of immutable-valued attributes.

The paper models a virtual world as a high-dimensional database whose
attributes change only in predictable ways.  A :class:`WorldObject` is
one row of that database: an object id plus a flat attribute dict whose
values are restricted to immutable Python scalars and tuples, so that
copying an object is a shallow dict copy and equality is structural.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple

from repro.errors import ProtocolError
from repro.types import AttrValue, ObjectId

_ALLOWED_VALUE_TYPES = (int, float, str, bool, tuple, type(None))


def _check_value(name: str, value: object) -> None:
    if not isinstance(value, _ALLOWED_VALUE_TYPES):
        raise ProtocolError(
            f"attribute {name!r} has mutable/unsupported type "
            f"{type(value).__name__}; use scalars or tuples"
        )


class WorldObject:
    """One object in the world state.

    Attributes are accessed with mapping syntax (``obj["x"]``) and are
    restricted to immutable values; this makes :meth:`copy` safe and
    cheap, which matters because the protocol copies objects constantly
    (optimistic replicas, blind writes, snapshots).
    """

    __slots__ = ("oid", "_attrs")

    def __init__(self, oid: ObjectId, attrs: Mapping[str, AttrValue]) -> None:
        for name, value in attrs.items():
            _check_value(name, value)
        self.oid = oid
        self._attrs: Dict[str, AttrValue] = dict(attrs)

    # -- mapping-ish access -------------------------------------------
    def __getitem__(self, name: str) -> AttrValue:
        return self._attrs[name]

    def __setitem__(self, name: str, value: AttrValue) -> None:
        _check_value(name, value)
        self._attrs[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self._attrs

    def __iter__(self) -> Iterator[str]:
        return iter(self._attrs)

    def get(self, name: str, default: AttrValue = None) -> AttrValue:
        """Attribute value or ``default`` when absent."""
        return self._attrs.get(name, default)

    def keys(self):  # noqa: D102 - mapping protocol
        return self._attrs.keys()

    def items(self):  # noqa: D102 - mapping protocol
        return self._attrs.items()

    # -- value semantics ----------------------------------------------
    def copy(self) -> "WorldObject":
        """Independent copy (attribute values are immutable, so shallow)."""
        return WorldObject(self.oid, self._attrs)

    def as_dict(self) -> Dict[str, AttrValue]:
        """Plain-dict view of the attributes (a copy)."""
        return dict(self._attrs)

    def update(self, values: Mapping[str, AttrValue]) -> None:
        """Set several attributes at once (all valid, or none set)."""
        for name, value in values.items():
            if not isinstance(value, _ALLOWED_VALUE_TYPES):
                _check_value(name, value)  # raises
        self._attrs.update(values)

    def state_token(self) -> Tuple[Tuple[str, AttrValue], ...]:
        """Canonical hashable representation of the current state.

        Used for checksums and cross-replica equality: two objects with
        equal tokens are observably identical.
        """
        return tuple(sorted(self._attrs.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorldObject):
            return NotImplemented
        return self.oid == other.oid and self._attrs == other._attrs

    def __hash__(self) -> int:
        return hash((self.oid, self.state_token()))

    def __repr__(self) -> str:
        attrs = ", ".join(f"{k}={v!r}" for k, v in sorted(self._attrs.items()))
        return f"WorldObject({self.oid!r}, {attrs})"
