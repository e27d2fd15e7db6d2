"""Cross-replica consistency checking — the empirical side of Theorem 1.

Theorem 1 states that in a distributed snapshot of the system the client
stable states ζ_CS and the server state ζ_S are never inconsistent.
Under the Incomplete World Model a client replica may be *stale* (it
stopped receiving actions for an object it no longer interacts with) but
must never hold a value that was never committed — staleness is a
consistent prefix, corruption is not.

:class:`ConsistencyChecker` therefore verifies, for every object every
client holds, that the held value equals either the server's current
committed value or some retained committed version of the object.  Run
it with a server whose :class:`~repro.state.versioned.VersionedStore`
keeps enough history (tests use an effectively unbounded limit).

The same checker measures *divergence* for the RING baseline, where the
paper's Figure 2/3 argument predicts genuine violations: values that
exist on no committed timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.state.store import ObjectStore
from repro.state.versioned import VersionedStore
from repro.types import ClientId, ObjectId

#: What some committed stores say about one held value: whether it is
#: the current value in one of them, whether it is a retained version in
#: one of them, and ``(shard, value)`` for the highest-numbered store
#: holding the object (``None`` when none does).
Verdict = Tuple[bool, bool, Optional[Tuple[int, dict]]]


def look(
    stores: Iterable[Tuple[int, VersionedStore]], oid: ObjectId, held: dict
) -> Verdict:
    """The verdict of ``stores`` — ``(shard, store)`` pairs, ascending —
    on ``held`` as the value of ``oid``."""
    historical, committed = False, None
    for shard, store in stores:
        if oid in store:
            committed = shard, store.get(oid).as_dict()
            if held == committed[1]:
                return True, historical, committed
        historical |= held in [attrs for _, _, attrs in store.history(oid)]
    return False, historical, committed


@dataclass
class Violation:
    """One object value with no committed counterpart."""

    client_id: ClientId
    oid: ObjectId
    held: dict
    committed: dict


@dataclass
class ConsistencyReport:
    """Outcome of a consistency sweep."""

    objects_checked: int = 0
    exact_matches: int = 0
    stale_but_consistent: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        """Theorem 1 verdict: no uncommitted values anywhere."""
        return not self.violations

    @property
    def violation_count(self) -> int:
        """Number of uncommitted values found."""
        return len(self.violations)

    def summary(self) -> str:
        """One-line human-readable verdict."""
        return (
            f"{self.objects_checked} object replicas checked: "
            f"{self.exact_matches} current, "
            f"{self.stale_but_consistent} stale-but-committed, "
            f"{self.violation_count} violations"
        )

    def record(
        self, client_id: ClientId, oid: ObjectId, held: dict, verdicts: List[Verdict]
    ) -> None:
        """Theorem 1's rule for one held value, judged by the stores
        behind ``verdicts`` together: current in one, else a retained
        committed version in one (stale), else a violation."""
        self.objects_checked += 1
        if any(current for current, _, _ in verdicts):
            self.exact_matches += 1
        elif any(historical for _, historical, _ in verdicts):
            self.stale_but_consistent += 1
        else:
            held_by = [committed for _, _, committed in verdicts if committed]
            _, committed = max(held_by, default=(0, {}))
            self.violations.append(Violation(client_id, oid, held, committed))


class ConsistencyChecker:
    """Compares client replicas against the server's committed history."""

    def __init__(self, server_state: VersionedStore) -> None:
        self.server_state = server_state

    def check_all(
        self, replicas: Dict[ClientId, ObjectStore]
    ) -> ConsistencyReport:
        """Check every client's stable replica (one aggregate report)."""
        report = ConsistencyReport()
        stores = ((0, self.server_state),)
        for client_id, replica in replicas.items():
            for obj in replica.objects():
                held = obj.as_dict()
                report.record(client_id, obj.oid, held, [look(stores, obj.oid, held)])
        return report


def check_uniform(replicas: Dict[ClientId, ObjectStore]) -> ConsistencyReport:
    """Consistency check for full-replication architectures.

    The basic action protocol and the Broadcast model have no partial
    replicas: every client applies every action in the same order, so at
    quiescence all replicas must be *identical*.  Each object is checked
    against the first replica holding it; a disagreement is a violation
    attributed to the disagreeing client.
    """
    report = ConsistencyReport()
    reference: Dict[ObjectId, Tuple[ClientId, dict]] = {}
    for client_id in sorted(replicas):
        for obj in replicas[client_id].objects():
            report.objects_checked += 1
            held = obj.as_dict()
            if obj.oid not in reference:
                reference[obj.oid] = (client_id, held)
                report.exact_matches += 1
                continue
            _, expected = reference[obj.oid]
            if held == expected:
                report.exact_matches += 1
            else:
                report.violations.append(
                    Violation(client_id, obj.oid, held, expected)
                )
    return report


def pairwise_divergence(
    replicas: Dict[ClientId, ObjectStore]
) -> List[Tuple[ClientId, ClientId, ObjectId]]:
    """Objects on which two replicas hold *different* values.

    This is a weaker observation than a Theorem 1 violation (two clients
    at different stable prefixes legitimately differ), but it is the
    user-visible symptom the paper's Figures 2/3 describe, and under the
    RING baseline it does not heal at quiescence.
    """
    divergent: List[Tuple[ClientId, ClientId, ObjectId]] = []
    ids = sorted(replicas)
    for i, left_id in enumerate(ids):
        left = replicas[left_id]
        for right_id in ids[i + 1 :]:
            right = replicas[right_id]
            for oid in left.ids() & right.ids():
                if left.get(oid) != right.get(oid):
                    divergent.append((left_id, right_id, oid))
    return divergent
