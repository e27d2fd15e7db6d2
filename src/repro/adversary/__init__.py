"""Deterministic, seeded cheating-client models (docs/adversary.md).

SEVE trusts clients twice over: the declared RS/WS sets are taken at
face value (the server only ever intersects them — PAPER.md §III-C),
and the committed world state ζ_S is assembled from client-*reported*
completion results.  This package models clients that abuse exactly
those trust edges, one lie per model:

``lying-rs``
    Undeclared reads: the wire copy of every action drops one neighbor
    from its declared read set while the computation still consults it.
``lying-ws``
    Undeclared writes: every reported completion claims a write to an
    object outside the declared write set.
``nondet``
    Non-deterministic ``apply()``: reported completion values disagree
    (by a large, seeded offset) with what every honest replica computes.
``replay``
    At-most-once abuse: every submission is followed by a second
    ``SubmitAction`` reusing the same ``ActionId`` with mutated content.
``forge``
    Interest-set escape: the wire copy names a foreign avatar in its
    write set — an object the client does not own.
``equivocate``
    Stale-version equivocation: after the honest completion, a second,
    conflicting completion for the same serialization slot.

Every model wraps the honest :class:`~repro.core.client.ProtocolClient`
(the cheater's *local* experience is the honest protocol; only its
traffic lies) and draws any choices from a ``random.Random`` seeded
with ``(plan seed, client id, model)``, so runs are reproducible across
processes.  Models are injected per client through
:class:`AdversaryPlan` on :class:`~repro.harness.config.SimulationSettings`
(CLI ``--adversary MODEL:CLIENT[+CLIENT...],...``), mirroring how
:class:`~repro.net.faults.FaultPlan` injects network faults — including
the null-plan guarantee: an empty plan is byte-identical to no plan.

The matching server side lives in :mod:`repro.core.detection`.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Type

from repro.core.action import ActionResult
from repro.core.client import ProtocolClient
from repro.core.messages import Completion, SubmitAction, wire_size
from repro.errors import ConfigurationError
from repro.net.faults import split_plan
from repro.types import ClientId
from repro.world.avatar import avatar_id
from repro.world.movement import MoveAction

#: Every model this package ships, in CLI/plan canonical order.
ADVERSARY_MODELS: Tuple[str, ...] = (
    "lying-rs",
    "lying-ws",
    "nondet",
    "replay",
    "forge",
    "equivocate",
)


# ---------------------------------------------------------------------------
# The plan: which clients cheat, and how
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AdversaryPlan:
    """Per-client cheat-model assignments (the ``FaultPlan`` of lies).

    A null plan (no assignments) is **indistinguishable from no plan**:
    the engine never constructs a detector or substitutes a client
    class, so the run is byte-identical to one without the flag — the
    differential tests pin this.
    """

    #: Canonicalized ``((model, (client, ...)), ...)`` assignments,
    #: sorted by model then client id; one model per client.
    assignments: Tuple[Tuple[str, Tuple[ClientId, ...]], ...] = ()
    #: Seed for the cheat models' private RNG streams.
    seed: int = 0

    def __post_init__(self) -> None:
        merged: Dict[str, set] = {}
        owner: Dict[ClientId, str] = {}
        for model, client_ids in self.assignments:
            if model not in ADVERSARY_MODELS:
                raise ConfigurationError(
                    f"unknown adversary model {model!r} "
                    f"(known: {', '.join(ADVERSARY_MODELS)})"
                )
            for client_id in client_ids:
                client_id = int(client_id)
                if client_id < 0:
                    raise ConfigurationError(
                        f"adversary client ids must be >= 0, got {client_id}"
                    )
                previous = owner.get(client_id)
                if previous is not None and previous != model:
                    raise ConfigurationError(
                        f"client {client_id} assigned two adversary models "
                        f"({previous!r} and {model!r})"
                    )
                owner[client_id] = model
                merged.setdefault(model, set()).add(client_id)
        canonical = tuple(
            (model, tuple(sorted(merged[model])))
            for model in sorted(merged)
        )
        object.__setattr__(self, "assignments", canonical)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def is_null(self) -> bool:
        """No cheaters: the honest, detector-free code path."""
        return not self.assignments

    def model_of(self, client_id: ClientId) -> Optional[str]:
        """The model assigned to ``client_id``, or ``None`` (honest)."""
        for model, client_ids in self.assignments:
            if client_id in client_ids:
                return model
        return None

    @property
    def client_ids(self) -> Tuple[ClientId, ...]:
        """Every cheating client, ascending."""
        ids: set = set()
        for _, client_ids in self.assignments:
            ids.update(client_ids)
        return tuple(sorted(ids))

    def to_dict(self) -> dict:
        return {
            "assignments": [
                [model, list(client_ids)]
                for model, client_ids in self.assignments
            ],
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(data: dict) -> "AdversaryPlan":
        return AdversaryPlan(
            assignments=tuple(
                (model, tuple(client_ids))
                for model, client_ids in data.get("assignments", ())
            ),
            seed=data.get("seed", 0),
        )


def parse_adversary_plan(
    text: str,
) -> Tuple[Tuple[str, Tuple[ClientId, ...]], ...]:
    """Parse the CLI assignment syntax ``MODEL:ID[+ID...][,...]``.

    The empty string parses to the null plan's empty assignment tuple;
    an empty entry or client id is an error (:func:`split_plan`).
    """
    assignments = []
    for part in split_plan(text, ",", "--adversary entry"):
        try:
            model, _, ids = part.partition(":")
            client_ids = tuple(map(int, split_plan(ids, "+", "client id")))
            if not client_ids:
                raise ValueError("no client ids")
            assignments.append((model.strip(), client_ids))
        except (ValueError, ConfigurationError) as exc:
            raise ConfigurationError(
                f"bad --adversary entry {part!r} "
                f"(want MODEL:ID[+ID...]): {exc}"
            ) from exc
    return tuple(assignments)


# ---------------------------------------------------------------------------
# The cheating clients
# ---------------------------------------------------------------------------
class CheatingClient(ProtocolClient):
    """An honest protocol client with a lying edge.

    Subclasses override exactly one of the honest client's two outward
    seams — :meth:`~repro.core.client.ProtocolClient._wire_action` (what
    a submission claims) or :meth:`_send_completion` (what a completion
    reports) — or add extra traffic in :meth:`_after_submit`.  The
    local protocol machinery (optimistic queue, reconciliation, stream
    handling) stays honest, which is what a rational cheater runs: it
    wants its own world view correct while poisoning everyone else's.
    """

    #: Model name, also the RNG stream discriminator.
    MODEL = ""

    def __init__(self, *args, adversary_seed: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Private, deterministic randomness for this cheater's choices
        #: (string-seeded so the stream is identical across processes).
        self.cheat_rng = random.Random(
            f"{adversary_seed}:{self.client_id}:{self.MODEL}"
        )

    def submit(self, action) -> None:
        super().submit(action)
        self._after_submit(action)

    def _after_submit(self, action) -> None:
        """Extra cheat traffic right after an honest-shaped submit."""
        if not self.config.send_completions:
            self._basic_mode_cheat(action)

    def _basic_mode_cheat(self, action) -> None:
        """Misbehave under the basic protocol (no completion channel).

        Completion-forging models override this to send a completion
        anyway — the basic serializer treats any non-submit payload as
        a protocol breach, which *is* the detection signal there.
        """

    def _cheat_completion(self, action, result: ActionResult) -> None:
        """Send a fabricated completion for ``action``."""
        message = Completion(
            -1, action.action_id, result, reporter=self.client_id
        )
        self.network.send(
            self.client_id, self.server_id, message, wire_size(message)
        )


class _TolerantMoveAction(MoveAction):
    """A MoveAction that shrugs off replicas missing a neighbor.

    The ``lying-rs`` wire copy under-declares its read set, so the
    server may seed victim replicas without one of the inputs.  A naive
    lie would crash the victims with :class:`MissingObjectError`; a
    competent cheater ships forgiving action code instead (the client
    authors the action — code is part of the payload), so the lie stays
    *silent* and only the RW-set sanitizer can see it.  The membership
    probe below is itself a tracked read, so every skip still leaves
    attributable evidence.
    """

    def _neighbor_states(self, store):
        for neighbor_oid in self._others:
            if neighbor_oid in store:
                yield store.get(neighbor_oid)


class LyingRSClient(CheatingClient):
    """Undeclared reads: the declared RS omits an input ``apply`` uses.

    Detected by the ``evidence`` detector: honest replicas re-execute
    the pushed action inside the PR 6 sanitizer, whose violation
    records now carry the originating client id (this PR) — the engine
    routes cheat-attributed violations to the detector instead of the
    run's violation report.
    """

    MODEL = "lying-rs"

    def _wire_action(self, action):
        if not isinstance(action, MoveAction):
            return action
        wire = _TolerantMoveAction(
            action.action_id,
            action.avatar_oid,
            neighbors=action.neighbors,
            walls=action.walls,
            duration_s=action.duration_s,
            effect_range=action.radius,
            position=action.position,
            velocity=action.velocity,
            cost_ms=action.cost_ms,
        )
        hidden = sorted(action.reads - action.writes)
        if hidden:
            victim = hidden[self.cheat_rng.randrange(len(hidden))]
            wire.reads = action.reads - {victim}
        else:
            # No shared object to hide (the replica knows nobody yet):
            # under-declare the only input left, the avatar itself.
            # This degenerate lie breaks RS ⊇ WS, so the admission-time
            # ``malformed`` sanity check catches it instead of the
            # replica-side ``evidence`` detector.
            wire.reads = action.reads - frozenset({action.avatar_oid})
        return wire


class LyingWSClient(CheatingClient):
    """Undeclared writes: completions claim a write outside WS(a).

    Detected by ``ws-conformance`` (the completion screen compares
    reported written ids against the declared write set) in the
    incomplete-world protocols, and by ``breach`` under the basic
    serializer (which has no completion channel at all).
    """

    MODEL = "lying-ws"

    def _taint(self, result: ActionResult) -> ActionResult:
        if result.aborted:
            return result
        values = result.values()
        values[f"loot:{self.cheat_rng.randrange(1 << 16)}"] = {"stolen": True}
        return ActionResult.of(values)

    def _send_completion(self, action, result, pos: int = -1) -> None:
        if action.action_id.client_id == self.client_id:
            result = self._taint(result)
        super()._send_completion(action, result, pos)

    def _basic_mode_cheat(self, action) -> None:
        self._cheat_completion(action, self._taint(ActionResult.of({})))


class NondetClient(CheatingClient):
    """Non-deterministic ``apply()``: reported values nobody reproduces.

    The cheater reports positions far from where the action could have
    moved it.  Detected by ``plausibility`` (reported write position vs
    the action's declared submit-time position) in the incomplete-world
    protocols; ``breach`` under the basic serializer.
    """

    MODEL = "nondet"

    def _jitter(self, result: ActionResult) -> ActionResult:
        if result.aborted:
            return result
        values = result.values()
        changed = False
        for oid in sorted(values):
            attrs = values[oid]
            if "x" in attrs and "y" in attrs:
                attrs["x"] = float(attrs["x"]) + 137.0 + self.cheat_rng.random()
                attrs["y"] = float(attrs["y"]) + 137.0
                changed = True
        return ActionResult.of(values) if changed else result

    def _send_completion(self, action, result, pos: int = -1) -> None:
        if action.action_id.client_id == self.client_id:
            result = self._jitter(result)
        super()._send_completion(action, result, pos)

    def _basic_mode_cheat(self, action) -> None:
        self._cheat_completion(action, self._jitter(ActionResult.of({})))


class ReplayClient(CheatingClient):
    """At-most-once abuse: resend each ActionId with mutated content.

    The second submission reuses the id (so naive dedup treats it as an
    idempotent retry) but changes the payload.  Detected by ``replay``:
    the server fingerprints admitted actions and compares duplicates
    against the remembered fingerprint.  Works identically in every
    protocol variant.
    """

    MODEL = "replay"

    def _after_submit(self, action) -> None:
        replayed = copy.copy(action)
        replayed.cost_ms = action.cost_ms + 0.25 + self.cheat_rng.random()
        message = SubmitAction(replayed)
        self.network.send(
            self.client_id, self.server_id, message, wire_size(message)
        )


class ForgeClient(CheatingClient):
    """Interest-set escape: write-claim an avatar the client doesn't own.

    Detected by ``forgery`` at admission — writes outside the sender's
    ownership are rejected *before* the ActionId is burned or any
    server CPU is charged, so the forge's committed-state blast radius
    is exactly zero (pinned by the byte-identity property test).
    """

    MODEL = "forge"

    def _victim(self, action):
        others = sorted(action.reads - action.writes)
        if others:
            return others[self.cheat_rng.randrange(len(others))]
        return avatar_id(self.client_id + 1)

    def _wire_action(self, action):
        victim = self._victim(action)
        wire = copy.copy(action)
        wire.reads = action.reads | {victim}
        wire.writes = action.writes | {victim}
        return wire


class EquivocateClient(CheatingClient):
    """Stale-version equivocation: two results for one committed slot.

    After the honest completion, the cheater reports a second,
    conflicting result for the same action — trying to rewrite history
    depending on which message a server trusts.  Detected by
    ``equivocation`` (conflicting completion from the originator,
    checked against both live entries and the recently-committed ring);
    ``breach`` under the basic serializer.
    """

    MODEL = "equivocate"

    def _conflicting(self, result: ActionResult) -> ActionResult:
        values = result.values()
        for oid in sorted(values):
            attrs = values[oid]
            if "x" in attrs:
                attrs["x"] = float(attrs["x"]) + 500.0
        return ActionResult.of(values)

    def _send_completion(self, action, result, pos: int = -1) -> None:
        super()._send_completion(action, result, pos)
        if action.action_id.client_id != self.client_id or result.aborted:
            return
        second = self._conflicting(result)
        if second == result:
            return
        message = Completion(
            pos, action.action_id, second, reporter=self.client_id
        )
        self.network.send(
            self.client_id, self.server_id, message, wire_size(message)
        )

    def _basic_mode_cheat(self, action) -> None:
        self._cheat_completion(action, ActionResult.of({}))


_MODEL_CLASSES: Dict[str, Type[CheatingClient]] = {
    "lying-rs": LyingRSClient,
    "lying-ws": LyingWSClient,
    "nondet": NondetClient,
    "replay": ReplayClient,
    "forge": ForgeClient,
    "equivocate": EquivocateClient,
}


def cheat_class(model: str) -> Type[CheatingClient]:
    """The :class:`CheatingClient` subclass implementing ``model``."""
    try:
        return _MODEL_CLASSES[model]
    except KeyError:
        raise ConfigurationError(
            f"unknown adversary model {model!r} "
            f"(known: {', '.join(ADVERSARY_MODELS)})"
        ) from None
