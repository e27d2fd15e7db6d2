"""Actions: the unit of interaction in an action-based protocol.

Per Section III-C of the paper, an action *a* consists of a read set
RS(a), a write set WS(a) with RS(a) ⊇ WS(a), and code computing new
values for WS(a) from the values of RS(a).  Crucially for scalability,
the *server never runs that code* — it only intersects the declared
sets — so :class:`Action` carries the sets as data, declared by the
originating client when it creates the action.

Actions additionally carry the spatial metadata the First Bound Model
(Section III-D) and the Section IV optimizations need: a point of
occurrence, a radius of influence, an optional velocity vector, and an
interest class.

Determinism contract
--------------------
``apply(store)`` must be a deterministic function of the values of
RS(a) in ``store``.  Every replica that applies the same action to the
same read-set values must produce the same result — that is what makes
optimistic/stable comparison and Theorem 1 work.  Implementations that
need randomness must derive it from ``self.action_id`` (see
:meth:`Action.stable_nonce`).

Neither half of the contract is taken on faith (see
docs/static_analysis.md): the :mod:`repro.analysis.lint` AST linter
bans the nondeterminism sources (wall clocks, unseeded RNGs, unsorted
set iteration) from the library, and the :mod:`repro.analysis.sanitizer`
RW-set sanitizer (``--rwset-sanitizer``) checks every actual store
access during :meth:`Action.apply` at runtime and flags reads outside
RS(a), enumerations of the whole store and writes outside WS(a) — the
undeclared-*write* check below catches only half of the lie, and an
undeclared read silently breaks replica convergence.  The tests run
every line of every world action under it
(``scripts/sanitizer_coverage.py``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.errors import ActionAborted, ProtocolError
from repro.state.store import ObjectStore, ValuesDict
from repro.types import SERVER_ID, ClientId, ObjectId
from repro.world.geometry import Vec2


class ActionId(NamedTuple):
    """Globally unique action identifier: (originating client, local seq).

    Server-generated actions (blind writes) use ``SERVER_ID``.
    """

    client_id: ClientId
    seq: int

    def __repr__(self) -> str:
        return f"a[{self.client_id}.{self.seq}]"


@dataclass(frozen=True)
class ActionResult:
    """The result *v* of evaluating an action: the values it wrote.

    ``written`` maps each written object id to the attribute values the
    action stored.  ``aborted`` marks the Bayou-style no-op outcome of an
    action that detected a fatal conflict during (re-)execution.  Two
    results are equal iff they wrote the same values (or both aborted) —
    this equality is what Algorithm 1/4 step 5 compares.
    """

    written: tuple  # canonicalised ValuesDict, see `of`
    aborted: bool = False

    @staticmethod
    def of(values: ValuesDict, *, aborted: bool = False) -> "ActionResult":
        """Build a result from a values dict (canonicalising for equality)."""
        canonical = tuple(
            sorted((oid, tuple(sorted(attrs.items()))) for oid, attrs in values.items())
        )
        return ActionResult(canonical, aborted)

    def values(self) -> ValuesDict:
        """The written values as a regular dict (copy)."""
        return {oid: dict(attrs) for oid, attrs in self.written}

    def written_ids(self) -> frozenset[ObjectId]:
        """Ids of the objects this result wrote."""
        return frozenset(oid for oid, _ in self.written)


#: Result of an action that aborted (wrote nothing).
ABORT_RESULT = ActionResult.of({}, aborted=True)


class Action(abc.ABC):
    """Base class for all actions.

    Subclasses implement :meth:`compute`, which reads values from a
    store and returns the values to write; the base class handles the
    write-back, abort semantics, and declared-set enforcement.
    """

    #: Interest class for Section IV-A inconsequential-action
    #: elimination.  Clients subscribe to classes; "default" reaches all.
    interest_class: str = "default"

    def __init__(
        self,
        action_id: ActionId,
        *,
        reads: frozenset[ObjectId],
        writes: frozenset[ObjectId],
        position: Optional[Vec2] = None,
        radius: float = 0.0,
        velocity: Optional[Vec2] = None,
        cost_ms: float = 0.0,
    ) -> None:
        if not writes <= reads:
            raise ProtocolError(
                f"{action_id}: RS must contain WS "
                f"(missing {set(writes) - set(reads)})"
            )
        if radius < 0:
            raise ProtocolError(f"{action_id}: radius must be non-negative")
        if cost_ms < 0:
            raise ProtocolError(f"{action_id}: cost must be non-negative")
        self.action_id = action_id
        self.reads = reads
        self.writes = writes
        self.position = position
        self.radius = radius
        self.velocity = velocity
        self.cost_ms = cost_ms

    @property
    def client_id(self) -> ClientId:
        """Id of the originating client."""
        return self.action_id.client_id

    # -- evaluation -----------------------------------------------------
    @abc.abstractmethod
    def compute(self, store: ObjectStore) -> ValuesDict:
        """Compute the values to write, reading only RS(self) from
        ``store``.

        May raise :class:`ActionAborted` to signal a fatal conflict, in
        which case the action behaves as a no-op (Bayou semantics).
        """

    def apply(self, store: ObjectStore) -> ActionResult:
        """Evaluate the action against ``store`` and write back.

        Returns the :class:`ActionResult` (the *v* / *u* of Algorithms
        1 and 4).  Enforces the declared write set: computing values for
        an undeclared object is a protocol bug and raises.  Undeclared
        *reads* are invisible to this check — the opt-in RW-set
        sanitizer (:mod:`repro.analysis.sanitizer`) catches those by
        scoping every store access to this action.
        """
        scope = store.action_scope
        if scope is not None:
            with scope(self):
                return self._apply(store)
        return self._apply(store)

    def _apply(self, store: ObjectStore) -> ActionResult:
        """The unscoped evaluation body (override point for subclasses
        that replace the compute/write-back cycle, e.g. blind writes)."""
        try:
            values = self.compute(store)
        except ActionAborted:
            return ABORT_RESULT
        return self._write_back(store, values)

    def _write_back(self, store: ObjectStore, values: ValuesDict) -> ActionResult:
        """Store computed ``values`` (declared writes only) and return
        them as the result."""
        undeclared = set(values) - set(self.writes)
        if undeclared:
            raise ProtocolError(
                f"{self.action_id} wrote undeclared objects {sorted(undeclared)}"
            )
        for oid, attrs in values.items():
            obj = store.get(oid)
            obj.update(attrs)
        return ActionResult.of(values)

    # -- helpers ----------------------------------------------------------
    def stable_nonce(self) -> int:
        """Deterministic pseudo-random value derived from the action id.

        Subclasses use this instead of an RNG so that re-execution on
        any replica makes identical choices.
        """
        client_id, seq = self.action_id
        value = (client_id * 2654435761 + seq * 40503) & 0xFFFFFFFF
        value ^= value >> 16
        value = (value * 2246822519) & 0xFFFFFFFF
        return value ^ (value >> 13)

    def wire_size(self) -> int:
        """Simulated size of this action on the wire, in bytes.

        Base header (48) + 8 bytes per read/write-set entry + 16 bytes
        of spatial metadata.  Kept deliberately simple; the traffic
        figures only need relative magnitudes.
        """
        return 48 + 8 * (len(self.reads) + len(self.writes)) + 16

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.action_id!r}, "
            f"|RS|={len(self.reads)}, |WS|={len(self.writes)})"
        )


class BlindWrite(Action):
    """W(S, v): unconditionally store values into an object set.

    Used by the Incomplete World server to seed a client's replica with
    the committed values of a closure's residual read set (Algorithm 6
    prepends one to every reply), and available to world code for
    unconditional state installation.  RS = WS = S by convention.
    """

    def __init__(
        self,
        action_id: ActionId,
        values: ValuesDict,
        *,
        origin: Optional[ActionId] = None,
    ) -> None:
        object_ids = frozenset(values)
        super().__init__(
            action_id,
            reads=object_ids,
            writes=object_ids,
            cost_ms=0.0,
        )
        self._values: ValuesDict = {oid: dict(attrs) for oid, attrs in values.items()}
        #: For sharded deployments: the id of the spanning action whose
        #: committed result these values carry (``None`` for ordinary
        #: closure-seed blind writes).  Lets receivers attribute the
        #: values to the original action for audit purposes.
        self.origin = origin

    @classmethod
    def from_server(cls, seq: int, values: ValuesDict) -> "BlindWrite":
        """Blind write minted by the server (the usual case)."""
        return cls(ActionId(SERVER_ID, seq), values)

    def compute(self, store: ObjectStore) -> ValuesDict:
        """Return the stored values verbatim (installing absent objects)."""
        return {oid: dict(attrs) for oid, attrs in self._values.items()}

    def _apply(self, store: ObjectStore) -> ActionResult:
        """Install the values (objects need not pre-exist in the store).

        Ordinary closure-seed blind writes carry *complete* committed
        object states and replace wholesale.  Span value entries
        (``origin`` set) carry the attributes the spanning action
        actually wrote — a partial write that must merge over the
        seeded object, exactly as an evaluation's write-back would.
        """
        values = {oid: dict(attrs) for oid, attrs in self._values.items()}
        if self.origin is not None:
            store.merge(values)
        else:
            store.install(values)
        return ActionResult.of(self._values)

    def values(self) -> ValuesDict:
        """The values this blind write installs (copy)."""
        return {oid: dict(attrs) for oid, attrs in self._values.items()}

    def wire_size(self) -> int:
        """Blind writes ship values: 16 + 8/object + 12/attribute
        (+ 8 when an origin action id rides along)."""
        attr_count = sum(len(attrs) for attrs in self._values.values())
        return (
            16
            + 8 * len(self._values)
            + 12 * attr_count
            + (8 if self.origin is not None else 0)
        )
