"""Cross-shard consistency audit for sharded SEVE deployments.

A sharded run (:mod:`repro.core.sharded`) serializes *local* actions
independently per shard and *spanning* actions through one global
sequencer.  The correctness claim is that every client's observed
stream embeds into one global serializable order: two clients anywhere
in the world that both observe a pair of spanning actions observe them
in the same (gsn) order, and every replica value a client holds was
committed by some shard's authoritative timeline.

This module checks both halves after a run, from artifacts the engine
already keeps:

1. **Span order** — every client's observation log (recorded when
   :class:`~repro.core.engine.SeveConfig.record_observations` is on,
   which sharded harness runs force) must list spanning actions in
   strictly increasing gsn order *within each attachment epoch*.
   Epochs are delimited by the ``("epoch", shard)`` markers the client
   writes at each handoff; positions restart per shard stream, so only
   within-epoch order is meaningful — and within an epoch the stream
   is a suffix of one shard's gsn-ordered splice sequence, which is
   what makes the per-epoch check sufficient for embeddability.
2. **Replica values** — every object in every client's stable replica
   must equal the current or some retained historical committed
   version in *at least one* shard's store (Theorem 1 lifted to the
   sharded deployment: shard stores legitimately diverge on each
   other's local actions, so the single-store checker is per-shard).

The audit runs where the data lives: each partition of a run
(:mod:`repro.net.backend`) holds its own clients' replicas and logs and
its own shards' stores, and none of them leaves it.  A partition's
:class:`AuditShare` checks its clients' held values against its own
stores and keeps the few that match no owned store's current value as
its *residue*; one exchange hands every partition the others' residue
and the global gsn map; each then answers for its stores on that
residue and checks its own clients' span order.  :func:`combine` turns
the shares into the reports, and :func:`audit_sharded_run` is the
one-partition case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.metrics.consistency import ConsistencyReport, Verdict, look
from repro.types import ClientId, ObjectId

#: A held value no owned store holds as current: ``(client, index,
#: oid, held, verdict)`` — ``index`` is the object's place in the
#: client's replica, ``verdict`` what the owned stores say.
Residue = Tuple[ClientId, int, ObjectId, dict, Verdict]


@dataclass
class SpanOrderViolation:
    """Two spanning actions observed against their global order."""

    client_id: ClientId
    epoch: int
    earlier_gsn: int
    later_gsn: int


@dataclass
class ShardAuditReport:
    """Outcome of the cross-shard consistency audit."""

    clients_checked: int = 0
    epochs_checked: int = 0
    span_observations: int = 0
    order_violations: List[SpanOrderViolation] = field(default_factory=list)
    replica_report: ConsistencyReport = field(default_factory=ConsistencyReport)

    @property
    def consistent(self) -> bool:
        """Whether both halves of the audit passed."""
        return not self.order_violations and self.replica_report.consistent

    def summary(self) -> str:
        """One-line human-readable verdict."""
        return (
            f"{self.clients_checked} clients / {self.epochs_checked} epochs: "
            f"{self.span_observations} span observations, "
            f"{len(self.order_violations)} order violations; "
            f"replicas: {self.replica_report.summary()}"
        )


def _stores(engine) -> List[tuple]:
    return [(shard, engine.shard_states[shard]) for shard in engine.owned_shards]


@dataclass
class AuditShare:
    """One partition's share of the audit, over the clients and shards
    its engine owns (``owned_clients`` / ``owned_shards``).  Built at the
    end of the run (the local pass), completed by :meth:`answer` once
    the exchange has brought the other partitions' residue; picklable,
    and small."""

    #: Per owned client, how many of its held values are current in an
    #: owned store.
    current: Dict[ClientId, int]
    #: The held values that are not.
    residue: List[Residue]
    #: Per partition, this one's verdicts on that partition's residue
    #: (``None`` for its own).
    answers: List[Optional[List[Verdict]]] = field(default_factory=list)
    epochs: int = 0
    span_observations: int = 0
    order_violations: List[SpanOrderViolation] = field(default_factory=list)

    @classmethod
    def of(cls, engine) -> "AuditShare":
        """The local pass over a drained engine."""
        stores = _stores(engine)
        share = cls({}, [])
        for client_id in sorted(engine.owned_clients):
            share.current[client_id] = 0
            for index, obj in enumerate(engine.clients[client_id].stable.objects()):
                held = obj.as_dict()
                verdict = look(stores, obj.oid, held)
                share.current[client_id] += verdict[0]
                if not verdict[0]:
                    share.residue.append((client_id, index, obj.oid, held, verdict))
        return share

    def answer(self, engine, residues: List[Optional[List[Residue]]], gsns) -> None:
        """Answer for the owned stores on every other partition's
        residue (``None`` marks this one's), and check the owned
        clients' span order against the global gsn map ``gsns``."""
        stores = _stores(engine)
        self.answers = [
            None
            if residue is None
            else [look(stores, oid, held) for _, _, oid, held, _ in residue]
            for residue in residues
        ]
        for client_id in sorted(engine.owned_clients):
            observations = engine.clients[client_id].observations
            if observations is None:
                continue
            epoch, last_gsn = 0, -1
            self.epochs += 1
            for record in observations:
                if record[0] == "epoch":
                    epoch, last_gsn = epoch + 1, -1
                    self.epochs += 1
                    continue
                _, _, action_id, origin = record
                gsn = gsns.get(origin if origin is not None else action_id)
                if gsn is None:
                    continue  # a local action — unconstrained interleaving
                self.span_observations += 1
                if gsn <= last_gsn:
                    self.order_violations.append(
                        SpanOrderViolation(client_id, epoch, last_gsn, gsn)
                    )
                last_gsn = gsn


def combine(shares: List[AuditShare], live) -> ShardAuditReport:
    """The audit of a run from its partitions' answered shares (in
    partition order): span order over every client, replica values over
    the ``live`` ones, each held value judged by every partition's
    stores together."""
    report = ShardAuditReport()
    replicas = report.replica_report
    judged = []
    for partition, share in enumerate(shares):
        report.clients_checked += len(share.current)
        report.epochs_checked += share.epochs
        report.span_observations += share.span_observations
        report.order_violations.extend(share.order_violations)
        current = sum(n for client_id, n in share.current.items() if client_id in live)
        replicas.objects_checked += current
        replicas.exact_matches += current
        answers = [other.answers[partition] for other in shares if other is not share]
        for index, (client_id, place, oid, held, verdict) in enumerate(share.residue):
            if client_id in live:
                verdicts = [verdict, *(answer[index] for answer in answers)]
                judged.append((client_id, place, oid, held, verdicts))
    report.order_violations.sort(key=lambda violation: violation.client_id)
    judged.sort(key=lambda item: item[:2])
    for client_id, _, oid, held, verdicts in judged:
        replicas.record(client_id, oid, held, verdicts)
    return report


def audit_sharded_run(engine) -> ShardAuditReport:
    """Run the full cross-shard audit over a drained sharded engine: the
    one-partition case of the exchange."""
    share = AuditShare.of(engine)
    share.answer(engine, [None], engine.span_gsn_map())
    return combine([share], set(engine.live_client_ids()))
