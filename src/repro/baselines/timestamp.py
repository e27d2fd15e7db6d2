"""The timestamp-ordered optimistic protocol of Section II-B.

Clients execute actions *tentatively* against their local, possibly
stale replicas, recording the version of every object read.  The server
integrates the submitted transactions into a global multiversion
history: a transaction **commits** iff every object it read is still at
the version it read (backward validation), else it **aborts** and the
client retries against fresher state.

The paper's criticisms, both observable here:

1. **Spurious aborts** — the server validates syntactically, so "any
   change in the read set, such as some player moving, would
   potentially cause the transaction to abort" even when the outcome
   would be unaffected.  Under contention the abort/retry rate climbs
   and with it the effective response time.
2. **Cost of avoiding them** — the alternative (the server understanding
   game-specific logic to ignore irrelevant changes) re-centralises the
   computation, which is the Central model's scalability wall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.baselines.common import BaselineClient, BaselineConfig, BaselineEngine
from repro.core.action import Action, ActionId
from repro.errors import ProtocolError
from repro.types import SERVER_ID, ClientId, ObjectId, TimeMs
from repro.world.base import World


@dataclass(frozen=True)
class Certify:
    """Client -> server: a tentatively executed transaction."""

    action_id: ActionId
    #: Versions of the read set at local execution time.
    read_versions: Tuple[Tuple[ObjectId, int], ...]
    #: The written values (canonicalised like ActionResult.written).
    written: tuple
    submitted_at: TimeMs = 0.0


@dataclass(frozen=True)
class Decision:
    """Server -> all clients: global history entry.

    Committed entries carry the authoritative values and their new
    versions; aborted entries carry only the verdict (the originator
    retries, nobody else cares).
    """

    action_id: ActionId
    committed: bool
    written: tuple
    versions: Tuple[Tuple[ObjectId, int], ...]


def _size(message: object) -> int:
    if isinstance(message, Certify):
        return (
            32
            + 12 * len(message.read_versions)
            + sum(8 + 12 * len(attrs) for _, attrs in message.written)
        )
    if isinstance(message, Decision):
        return (
            24
            + 12 * len(message.versions)
            + sum(8 + 12 * len(attrs) for _, attrs in message.written)
        )
    raise TypeError(type(message).__name__)


@dataclass
class TimestampStats:
    """Server-side counters."""

    certified: int = 0
    committed: int = 0
    aborted: int = 0

    @property
    def abort_rate(self) -> float:
        """Fraction of certification attempts that aborted."""
        if self.certified == 0:
            return 0.0
        return self.aborted / self.certified


class TimestampEngine(BaselineEngine):
    """Optimistic concurrency control with server-side certification."""

    def __init__(
        self,
        world: World,
        num_clients: int,
        config: Optional[BaselineConfig] = None,
        *,
        max_retries: int = 5,
        certify_cost_ms: float = 0.05,
    ) -> None:
        super().__init__(world, num_clients, config)
        self.max_retries = max_retries
        self.certify_cost_ms = certify_cost_ms
        self.stats = TimestampStats()
        #: Authoritative object versions (bumped on every commit).
        self._versions: Dict[ObjectId, int] = {}
        self._commit_seq = 0
        #: Per client: the object versions its replica holds, and its
        #: own transactions awaiting a verdict as ``(action, attempts)``.
        self._client_versions: Dict[ClientId, Dict[ObjectId, int]] = {
            client_id: {} for client_id in self.clients
        }
        self._client_retries: Dict[ClientId, Dict[ActionId, tuple]] = {
            client_id: {} for client_id in self.clients
        }

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(self, client_id: ClientId, action: Action) -> None:
        client = self.clients[client_id]
        client.note_submitted(action)
        self._client_retries[client_id][action.action_id] = (action, 0)
        self._execute_tentatively(client, action)

    def _execute_tentatively(self, client: BaselineClient, action: Action) -> None:
        def execute() -> None:
            versions = self._client_versions[client.client_id]
            read_versions = tuple(
                sorted((oid, versions.get(oid, 0)) for oid in action.reads)
            )
            # Tentative execution against a scratch copy: writes must not
            # dirty the replica before the server's verdict.
            scratch = client.store.snapshot()
            result = action.apply(scratch)
            client.evaluated += 1
            message = Certify(
                action.action_id,
                read_versions,
                result.written,
                submitted_at=client._submit_times.get(action.action_id, 0.0),
            )
            self.network.send(client.client_id, SERVER_ID, message, _size(message))

        client.host.execute(
            action.cost_ms + self.config.eval_overhead_ms, execute
        )

    def _on_client_message(
        self, client: BaselineClient, src: ClientId, payload: object
    ) -> None:
        if not isinstance(payload, Decision):
            raise ProtocolError(
                f"timestamp client: unexpected {type(payload).__name__}"
            )

        def apply() -> None:
            if payload.committed:
                client.store.merge(
                    {oid: dict(attrs) for oid, attrs in payload.written}
                )
                versions = self._client_versions[client.client_id]
                for oid, version in payload.versions:
                    versions[oid] = version
            if payload.action_id.client_id == client.client_id:
                self._handle_own_decision(client, payload)

        client.host.execute(self.UPDATE_APPLY_COST_MS, apply)

    def _handle_own_decision(self, client: BaselineClient, decision: Decision) -> None:
        retries = self._client_retries[client.client_id]
        state = retries.pop(decision.action_id, None)
        if decision.committed:
            client.note_confirmed(decision.action_id)
            return
        if state is None:
            return
        action, attempts = state
        if attempts + 1 > self.max_retries:
            client._submit_times.pop(decision.action_id, None)
            return  # give up: the transaction is lost (starvation)
        retries[decision.action_id] = (action, attempts + 1)
        self._execute_tentatively(client, action)

    # ------------------------------------------------------------------
    # Server side: backward validation
    # ------------------------------------------------------------------
    def _on_server_message(self, src: ClientId, payload: object) -> None:
        if not isinstance(payload, Certify):
            raise ProtocolError(
                f"timestamp server: unexpected {type(payload).__name__}"
            )
        self.server_host.execute(
            self.certify_cost_ms, lambda: self._certify(src, payload)
        )

    def _certify(self, src: ClientId, certify: Certify) -> None:
        self.stats.certified += 1
        valid = all(
            self._versions.get(oid, 0) == version
            for oid, version in certify.read_versions
        )
        if valid:
            self.stats.committed += 1
            self._commit_seq += 1
            values = {oid: dict(attrs) for oid, attrs in certify.written}
            self.state.merge(values)
            versions = []
            for oid in values:
                self._versions[oid] = self._commit_seq
                versions.append((oid, self._commit_seq))
            decision = Decision(
                certify.action_id, True, certify.written, tuple(sorted(versions))
            )
        else:
            self.stats.aborted += 1
            decision = Decision(certify.action_id, False, (), ())
        size = _size(decision)
        if decision.committed:
            for client_id in self.clients:
                if client_id in self.evicted:
                    continue  # presumed dead (Section III-C)
                self.network.send(SERVER_ID, client_id, decision, size)
        elif src not in self.evicted:
            self.network.send(SERVER_ID, src, decision, size)

    @property
    def abort_rate(self) -> float:
        """Server-observed abort fraction."""
        return self.stats.abort_rate

