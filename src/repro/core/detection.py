"""Server-side cheat detection and quarantine (docs/adversary.md).

SEVE's serializer never runs action code — it timestamps, serializes,
and pushes (PAPER.md §III).  That is the scalability story *and* the
attack surface: everything the server believes about an action (its
read/write sets, its committed values) is client-reported.  This module
is the validation-path companion to :mod:`repro.adversary`: a
:class:`CheatDetector` the servers consult at the two choke points
every client interaction already passes through —

* **admission** (``SubmitAction`` arrival, in every server's
  :class:`~repro.core.chassis.ServerShell`): structural checks that
  need no action execution — declared-id spoofing, writes outside the
  submitter's ownership (``forgery``), ``WS ⊄ RS`` (``malformed``), and
  replayed ``ActionId``\\ s whose payload differs from the first
  submission (``replay``, via content fingerprints).
* **completion** (``Completion`` arrival): checks against the entry the
  server already holds — reported writes outside the declared WS
  (``ws-conformance``), written positions implausibly far from the
  declared submit-time position (``plausibility``), and conflicting
  results for one action from its own originator (``equivocation``,
  including against already-committed results via a bounded ring).

A sixth detector, ``evidence``, is fed by the engine from the PR 6
runtime RW-set sanitizer: honest replicas re-execute every pushed
action inside :class:`~repro.analysis.sanitizer.SanitizedStore`, so a
client that lied about its read set produces attributable violation
records on its peers' hosts (see ``Violation.client_id``).  A seventh,
``breach``, covers protocol-shape violations (a message a server has no
handler for, such as a completion sent to the basic serializer, and
completions for positions that never existed).

Every flag increments a per-detector counter (``repro.obs`` exports
the counts as ``adversary.detect.<name>``) and quarantines the
cheater once through the ``on_quarantine`` hook — the engine evicts the
client via the PR 2 eviction machinery and aborts its orphaned entries.
The detector is only constructed for runs with a non-null
:class:`~repro.adversary.AdversaryPlan`; honest runs take byte-identical
code paths (``detector is None`` guards throughout the servers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.types import ClientId, ObjectId, TimeMs

#: Verdict for a completion that must be dropped *without* flagging the
#: sender: a conflicting report from a client that is neither the
#: action's originator nor a prior reporter of the same result.  Honest
#: replicas can legitimately disagree once a cheater has corrupted
#: closure seeding (a lying read set starves some replicas of inputs),
#: so punishing every conflict would quarantine victims.  Dropping
#: keeps the first-recorded result authoritative, exactly like the
#: fault-tolerant duplicate-completion path.
SILENT_DROP = "silent"

#: How many committed positions the equivocation ring remembers.  A
#: second, conflicting completion for an already-committed action can
#: only race the first by the completion round-trip, which is far less
#: than 64 serialization slots in every shipped scenario.
COMMIT_RING = 64


def action_fingerprint(action) -> tuple:
    """Content fingerprint of ``action``, stable across processes.

    Two submissions reusing one ``ActionId`` are the idempotent-retry
    path only if their payloads match; a cheater replaying the id with
    different content is trying to smuggle a second action past the
    at-most-once guarantee.  The fingerprint covers everything the
    serializer acts on — declared sets, position, advertised cost — and
    deliberately avoids Python ``hash()`` (salted per process; the
    parallel backend compares fingerprints in worker processes).
    """
    position = getattr(action, "position", None)
    return (
        type(action).__name__,
        tuple(sorted(action.reads)),
        tuple(sorted(action.writes)),
        None if position is None else (position.x, position.y),
        float(getattr(action, "cost_ms", 0.0)),
    )


@dataclass(frozen=True)
class DetectionRecord:
    """One deduplicated detection: first evidence per (detector, client).

    All fields are primitives so records survive the parallel backend's
    snapshot pickling unchanged.
    """

    #: Which detector fired (``forgery``, ``replay``, ``ws-conformance``,
    #: ``plausibility``, ``equivocation``, ``evidence``, ``breach``,
    #: ``malformed``).
    detector: str
    #: The client held responsible (and quarantined).
    client_id: ClientId
    #: ``repr`` of the offending action/ActionId (may be empty).
    action: str
    #: Human-readable evidence.
    detail: str
    #: Virtual time of detection, ms.
    at_ms: TimeMs

    def render(self) -> str:
        """One-line report form.

        >>> DetectionRecord("forgery", 3, "a[3.1]", "writes avatar:4",
        ...                 512.0).render()
        'forgery: client 3 a[3.1] at 512.00ms (writes avatar:4)'
        """
        action = f" {self.action}" if self.action else ""
        return (
            f"{self.detector}: client {self.client_id}{action} "
            f"at {self.at_ms:.2f}ms ({self.detail})"
        )


@dataclass
class CheatDetector:
    """Shared detection state for one engine (all shards consult it).

    The detector is deliberately engine-global rather than per-server:
    a cheater homed on shard 2 whose lie surfaces on shard 0 (a span, a
    migrated completion) must still map to one quarantine decision.
    """

    #: ``client_id -> ObjectId`` of the avatar that client owns (the
    #: world's :meth:`avatar_of`); ``None`` disables ownership checks.
    owned_of: Optional[Callable[[ClientId], Optional[ObjectId]]] = None
    #: Virtual clock (the engine's ``sim.now``), for record timestamps.
    clock: Optional[Callable[[], TimeMs]] = None
    #: Called once per newly quarantined client.
    on_quarantine: Optional[Callable[[ClientId], None]] = None
    #: Maximum credible distance (world units) between an action's
    #: declared submit-time position and any position it reports having
    #: written.  Honest drift is bounded by a few queued moves (~3
    #: units each); the default leaves an order of magnitude of slack.
    plausibility_bound: Optional[float] = 50.0

    #: Deduplicated evidence, one record per (detector, client).
    records: List[DetectionRecord] = field(default_factory=list)
    #: Raw per-detector fire counts (repeat offenses included).
    counts: Dict[str, int] = field(default_factory=dict)
    #: Clients flagged by any detector (superset of the engine's evicted
    #: set when a quarantine filter is installed).
    quarantined: Set[ClientId] = field(default_factory=set)
    #: Admitted-write footprint per client, frozen at quarantine: the
    #: blast radius of every cheat that got past admission.
    blast_radius: Dict[ClientId, int] = field(default_factory=dict)

    _flagged: Set[Tuple[str, ClientId]] = field(default_factory=set)
    _admitted_writes: Dict[ClientId, Set[ObjectId]] = field(
        default_factory=dict
    )
    _prints: Dict[object, tuple] = field(default_factory=dict)
    _committed: Dict[int, Tuple[object, ClientId]] = field(
        default_factory=dict
    )

    # -- recording ---------------------------------------------------------
    def flag(self, detector: str, client_id: ClientId, *,
             action: object = "", detail: str = "") -> None:
        """Record evidence against ``client_id`` and quarantine it once."""
        self.counts[detector] = self.counts.get(detector, 0) + 1
        key = (detector, client_id)
        if key not in self._flagged:
            self._flagged.add(key)
            self.records.append(
                DetectionRecord(
                    detector=detector,
                    client_id=client_id,
                    action=str(action),
                    detail=detail,
                    at_ms=self.clock() if self.clock is not None else 0.0,
                )
            )
        if client_id not in self.quarantined:
            self.quarantined.add(client_id)
            self.blast_radius[client_id] = len(
                self._admitted_writes.get(client_id, ())
            )
            if self.on_quarantine is not None:
                self.on_quarantine(client_id)

    # -- admission checks --------------------------------------------------
    def screen_submission(self, src: ClientId, action) -> bool:
        """Structural admission screen; ``True`` = reject (already
        flagged).  Runs *before* the ActionId is burned and before any
        server CPU is charged, so rejected submissions leave zero
        committed-state footprint (the ``forge`` model's blast radius
        is exactly zero — pinned by tests).

        An accepted action is fingerprinted for later replay checks and
        its declared writes are accounted to its sender: frozen into
        :attr:`blast_radius` at quarantine time, the number of distinct
        objects the server let this client name as write targets before
        detection caught up."""
        if action.action_id.client_id != src:
            self.flag(
                "forgery", src, action=action.action_id,
                detail=f"claims client {action.action_id.client_id}",
            )
            return True
        if not action.writes <= action.reads:
            extra = sorted(action.writes - action.reads)
            self.flag(
                "malformed", src, action=action.action_id,
                detail=f"WS ⊄ RS: {', '.join(extra)}",
            )
            return True
        if self.owned_of is not None:
            owned = self.owned_of(src)
            foreign = sorted(
                oid for oid in action.writes if oid != owned
            )
            if foreign:
                self.flag(
                    "forgery", src, action=action.action_id,
                    detail=f"writes outside ownership: {', '.join(foreign)}",
                )
                return True
        self._prints[action.action_id] = action_fingerprint(action)
        self._admitted_writes.setdefault(src, set()).update(action.writes)
        return False

    def check_replay(self, src: ClientId, action) -> bool:
        """``True`` when a duplicate ActionId carries different content
        (flagging ``replay``); ``False`` for the honest idempotent-retry
        shape, which the caller counts as a duplicate as usual."""
        expected = self._prints.get(action.action_id)
        if expected is None or expected == action_fingerprint(action):
            return False
        self.flag(
            "replay", src, action=action.action_id,
            detail="duplicate ActionId with mutated payload",
        )
        return True

    # -- completion checks -------------------------------------------------
    def remember_commit(self, pos: int, result, originator: ClientId) -> None:
        """Ring-buffer the committed result of serialization slot ``pos``."""
        self._committed[pos] = (result, originator)
        floor = pos - COMMIT_RING
        if floor in self._committed:
            del self._committed[floor]

    def committed_result(self, pos: int):
        """``(result, originator)`` for a recently committed slot."""
        return self._committed.get(pos)

    def screen_completion(
        self, src: ClientId, action, prior, reporters, result
    ) -> Optional[str]:
        """Screen one reported completion against its queue entry.

        ``prior`` is the result already recorded for the entry (or
        ``None``), ``reporters`` the clients that reported it.  Returns
        ``None`` to accept, a detector name to flag-and-drop, or
        :data:`SILENT_DROP` to drop without blame.  Pure on accept.
        """
        if prior is not None and result != prior:
            if src == action.action_id.client_id or src in reporters:
                return "equivocation"
            return SILENT_DROP
        if result.aborted:
            return None
        written = frozenset(result.written_ids())
        if not written <= action.writes:
            return "ws-conformance"
        bound = self.plausibility_bound
        position = getattr(action, "position", None)
        if bound is not None and position is not None:
            values = result.values()
            for oid in sorted(written):
                attrs = values[oid]
                x, y = attrs.get("x"), attrs.get("y")
                if x is None or y is None:
                    continue
                dx = float(x) - position.x
                dy = float(y) - position.y
                if dx * dx + dy * dy > bound * bound:
                    return "plausibility"
        return None
