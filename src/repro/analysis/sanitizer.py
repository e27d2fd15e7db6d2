"""Dynamic RW-set sanitizer: runtime conformance checking of declared
read/write sets (docs/static_analysis.md).

The server never runs action code: it trusts each action's declared
RS(a)/WS(a) and does set algebra over them.  This module checks that
trust where the code runs.  A :class:`SanitizedStore` is a drop-in
:class:`~repro.state.store.ObjectStore` whose accesses are scoped to
the action currently being applied: every read outside RS(a), every
enumeration of the whole store and every write outside WS(a) becomes a
:class:`Violation` — raised immediately in ``raise`` mode, collected
for the run report in ``report`` mode.  ``scripts/sanitizer_coverage.py``
checks that every line of every world action runs under it somewhere
in the tests.

This matters because :meth:`Action.apply` only enforces half the
contract on its own — it rejects values computed for undeclared
*writes*, but an undeclared *read* is invisible to it, and an
undeclared read is exactly the lie that breaks Theorem 1: replicas
whose stores agree on RS(a) but differ elsewhere will diverge.

Zero overhead when off
----------------------
The hook is :attr:`ObjectStore.action_scope`, a class attribute that is
``None`` on the plain store; ``Action.apply`` performs one attribute
load and one ``is None`` test per application.  Sanitized runs must not
*behave* differently either: the wrapper changes no return values and
no store contents, only observes — the differential test
(tests/test_sanitizer_differential.py) pins sanitized and unsanitized
runs to byte-identical reports.

Ambient mode
------------
Engines consult :func:`resolve_mode` when their config leaves
``rwset_sanitizer`` unset, so a test harness can turn the sanitizer on
for every engine it builds (the repo's conftest does, in ``raise``
mode) without threading a flag through each construction site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore, ValuesDict
from repro.types import ObjectId

#: Recognised sanitizer modes.
MODES: Tuple[str, ...] = ("off", "report", "raise")

#: Process-wide default consulted when a config leaves the mode unset.
_ambient_mode: str = "off"


def set_ambient_mode(mode: str) -> str:
    """Set the process-wide default mode; returns the previous one."""
    global _ambient_mode
    if mode not in MODES:
        raise ValueError(f"unknown sanitizer mode {mode!r} (expected {MODES})")
    previous = _ambient_mode
    _ambient_mode = mode
    return previous


def ambient_mode() -> str:
    """The current process-wide default mode."""
    return _ambient_mode


def resolve_mode(explicit: Optional[str]) -> str:
    """The effective mode: ``explicit`` when set, else the ambient one."""
    if explicit is None:
        return _ambient_mode
    if explicit not in MODES:
        raise ValueError(
            f"unknown sanitizer mode {explicit!r} (expected {MODES})"
        )
    return explicit


@dataclass(frozen=True)
class Violation:
    """One store access outside the active action's declared sets."""

    action: str  # repr of the offending ActionId
    action_type: str
    kind: str  # "read" | "write"
    oid: Optional[ObjectId]  # ``None``: the action enumerated the store
    declared: FrozenSet[ObjectId]
    store: str  # label of the store the access hit
    #: Originating client of the offending action (``ActionId.client_id``)
    #: — attribution for the cheat-detection layer (docs/adversary.md);
    #: ``None`` for violations recorded before this field existed.
    client_id: Optional[int] = None
    #: The offending action's per-client sequence number.
    seq: Optional[int] = None

    def render(self) -> str:
        declared_set = "RS" if self.kind == "read" else "WS"
        what = "the whole store" if self.oid is None else f"object {self.oid!r}"
        return (
            f"{self.action} ({self.action_type}) {self.kind} of {what} "
            f"outside declared {declared_set}="
            f"{sorted(self.declared)!r} on store {self.store or '?'}"
        )


class RWSetViolation(ProtocolError):
    """An action touched an object outside its declared RS/WS."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(violation.render())
        self.violation = violation


@dataclass
class SanitizerRecorder:
    """Shared sink for every sanitized store of one engine/run.

    In ``raise`` mode a violation aborts the run on the spot (the
    protocol bug is at the top of the traceback); in ``report`` mode
    violations accumulate here and surface in the run report.
    """

    mode: str = "raise"
    violations: List[Violation] = field(default_factory=list)
    reads_checked: int = 0
    writes_checked: int = 0
    scopes_entered: int = 0
    #: Interception hook: called with each violation *before* it is
    #: recorded; returning True absorbs it (no report entry, no raise).
    #: The engine routes violations attributed to a planned cheater to
    #: the cheat detector this way, so an ambient raise-mode sanitizer
    #: keeps aborting on honest protocol bugs while adversarial runs
    #: convert the cheater's violations into detections.
    on_violation: Optional[Callable[[Violation], bool]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.mode not in ("report", "raise"):
            raise ValueError(
                f"recorder mode must be 'report' or 'raise', got {self.mode!r}"
            )

    def __getstate__(self) -> dict:
        # The interception hook is typically a bound engine method —
        # unpicklable, and meaningless outside the worker that armed it.
        # Parallel-backend snapshots pickle sanitized stores (which share
        # this recorder), so strip the hook and keep the counters/records.
        state = dict(self.__dict__)
        state["on_violation"] = None
        return state

    def record(self, violation: Violation) -> None:
        """Register a violation (raising when so configured)."""
        if self.on_violation is not None and self.on_violation(violation):
            return
        self.violations.append(violation)
        if self.mode == "raise":
            raise RWSetViolation(violation)


class _ActionScope:
    """Context manager scoping a store's accesses to one action."""

    __slots__ = ("_store", "_action")

    def __init__(self, store: "SanitizedStore", action) -> None:
        self._store = store
        self._action = action

    def __enter__(self) -> None:
        self._store._scopes.append(self._action)
        self._store.recorder.scopes_entered += 1

    def __exit__(self, *exc_info) -> None:
        self._store._scopes.pop()


class SanitizedStore(ObjectStore):
    """An :class:`ObjectStore` that checks accesses against the active
    action's declared sets.

    Outside an action scope (replica seeding, reconciliation, checksum
    sweeps) accesses are deliberately unchecked — the RS/WS contract
    only constrains action evaluation, and the protocol layer is
    *supposed* to touch arbitrary objects when it reconciles.
    """

    def __init__(
        self,
        objects: Iterable[WorldObject] = (),
        *,
        recorder: Optional[SanitizerRecorder] = None,
        label: str = "",
    ) -> None:
        self.recorder = recorder if recorder is not None else SanitizerRecorder()
        self.label = label
        #: Stack of actions currently applying to this store (reentrant,
        #: though nested applies do not occur in practice).
        self._scopes: List = []
        super().__init__(objects)

    # -- the Action.apply hook -------------------------------------------
    def action_scope(self, action) -> _ActionScope:  # type: ignore[override]
        """Scope returned to :meth:`Action.apply`; while entered, every
        access to this store is checked against ``action``'s sets."""
        return _ActionScope(self, action)

    # -- checks ----------------------------------------------------------
    def _check_read(self, oid: Optional[ObjectId]) -> None:
        if self._scopes:
            self.recorder.reads_checked += 1
            self._check(self._scopes[-1], "read", oid)

    def _check_write(self, oid: ObjectId) -> None:
        if self._scopes:
            self.recorder.writes_checked += 1
            self._check(self._scopes[-1], "write", oid)

    def _check(self, action, kind: str, oid: Optional[ObjectId]) -> None:
        declared = action.reads if kind == "read" else action.writes
        if oid not in declared:
            self.recorder.record(
                Violation(
                    repr(action.action_id),
                    type(action).__name__,
                    kind,
                    oid,
                    declared,
                    self.label,
                    client_id=action.action_id.client_id,
                    seq=action.action_id.seq,
                )
            )

    # -- checked reads ---------------------------------------------------
    # The check precedes the underlying access so that in raise mode the
    # protocol bug outranks the MissingObjectError the undeclared lookup
    # might also produce.
    def get(self, oid: ObjectId) -> WorldObject:
        self._check_read(oid)
        return super().get(oid)

    def __contains__(self, oid: ObjectId) -> bool:
        self._check_read(oid)
        return super().__contains__(oid)

    def values_of_present(self, oids: Iterable[ObjectId]) -> ValuesDict:
        oids = list(oids)
        for oid in oids:
            self._check_read(oid)
        return super().values_of_present(oids)

    # ``values_of`` needs no override: it reads through :meth:`get`.

    # -- checked enumeration ---------------------------------------------
    # Which ids a replica holds is replica state outside any RS(a), so an
    # action that enumerates the store reads undeclared state whatever it
    # declared: each of these is a read of ``None``, never declared.
    def __iter__(self) -> Iterator[ObjectId]:
        self._check_read(None)
        return super().__iter__()

    def __len__(self) -> int:
        self._check_read(None)
        return super().__len__()

    def objects(self) -> Iterator[WorldObject]:
        self._check_read(None)
        return super().objects()

    def ids(self) -> FrozenSet[ObjectId]:
        self._check_read(None)
        return super().ids()

    # -- checked writes --------------------------------------------------
    def put(self, obj: WorldObject) -> None:
        self._check_write(obj.oid)
        super().put(obj)

    def install(self, values: ValuesDict) -> None:
        for oid in values:
            self._check_write(oid)
        super().install(values)

    def merge(self, values: ValuesDict) -> None:
        for oid in values:
            self._check_write(oid)
        super().merge(values)

    # -- snapshots -------------------------------------------------------
    def snapshot(self) -> "SanitizedStore":
        """Deep copy that stays sanitized, sharing this recorder, so an
        action applied to the copy is checked like one applied here."""
        clone = SanitizedStore(recorder=self.recorder, label=self.label)
        for oid, obj in self._objects.items():
            clone._objects[oid] = obj.copy()
        return clone

    def __repr__(self) -> str:
        return (
            f"SanitizedStore({len(self._objects)} objects, "
            f"mode={self.recorder.mode}, label={self.label!r})"
        )


def wrap_store(
    store: ObjectStore, recorder: SanitizerRecorder, label: str = ""
) -> SanitizedStore:
    """Sanitize an existing store in place (adopting its objects).

    The wrapper shares the original's object mapping, so it is a view,
    not a copy: mutations through either are visible to both.  Engines
    use this to sanitize the per-client stable store they just seeded.
    """
    wrapped = SanitizedStore(recorder=recorder, label=label)
    wrapped._objects = store._objects
    return wrapped
