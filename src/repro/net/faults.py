"""Deterministic fault injection for the net stack.

The paper's fault-tolerance discussion (Section III-C) assumes a network
that loses, delays, and duplicates messages and clients that crash
mid-run.  This module supplies the *plan* for such a run: a seeded,
serializable :class:`FaultPlan` that :class:`~repro.net.network.Network`
consults once per message.  All randomness flows through one dedicated
``random.Random(seed)`` owned by the :class:`FaultInjector`, so a given
(workload seed, fault seed) pair replays byte-identically — the property
the replay tests in ``tests/test_fault_properties.py`` assert.

Determinism contract
--------------------
* The injector draws from its RNG **only** for features whose rate is
  non-zero.  A null plan (all rates zero, no partitions, no crashes)
  therefore performs *zero* draws and the network takes the identical
  code path it takes with no plan at all — enforced by the differential
  test ``tests/test_fault_differential.py``.
* Draw order per message is fixed: partition check (no draw), then loss
  draw, then jitter draw, then duplicate draw.  Skipped features skip
  their draw entirely rather than drawing-and-ignoring, so enabling a
  feature never perturbs the stream consumed by another.

The module also hosts the constants for surviving the faults: client
resubmission (:func:`retry_delay`) and heartbeat eviction
(:data:`LIVENESS_TIMEOUT_MS`, Section III-C).  Which of them a run arms
follows from its plan (:class:`repro.core.chassis.EngineChassis`).
"""

from __future__ import annotations

import random
from math import inf
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.types import ClientId, TimeMs


# ---------------------------------------------------------------------------
# Plan ingredients
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Partition:
    """A scheduled window during which a set of hosts is cut off.

    While ``start_ms <= now < end_ms`` every message with a member of
    ``hosts`` as source *or* destination is dropped.  ``hosts=None``
    partitions everybody (total blackout).
    """

    start_ms: TimeMs
    end_ms: TimeMs
    hosts: Optional[frozenset[ClientId]] = None

    def __post_init__(self) -> None:
        if self.end_ms <= self.start_ms:
            raise ConfigurationError(
                f"partition window is empty: [{self.start_ms}, {self.end_ms})"
            )
        if self.hosts is not None and not isinstance(self.hosts, frozenset):
            object.__setattr__(self, "hosts", frozenset(self.hosts))

    def severs(self, src: ClientId, dst: ClientId, now: TimeMs) -> bool:
        """True when this window is active and covers ``src -> dst``."""
        if not (self.start_ms <= now < self.end_ms):
            return False
        return self.hosts is None or src in self.hosts or dst in self.hosts

    def to_dict(self) -> Dict[str, Any]:
        return {
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "hosts": sorted(self.hosts) if self.hosts is not None else None,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Partition":
        hosts = data.get("hosts")
        return Partition(
            start_ms=data["start_ms"],
            end_ms=data["end_ms"],
            hosts=frozenset(hosts) if hosts is not None else None,
        )


@dataclass(frozen=True)
class CrashWindow:
    """A scheduled crash, optionally followed by a reconnect/restart.

    The target is either a client (``shard_index is None``) or a shard
    host (``shard_index = K`` kills shard K's server process; its
    attached clients die with it).  ``reconnect_at_ms=None`` means the
    target never comes back (the permanent failure of Section III-C);
    for a shard target a reconnect time means the host restarts and
    recovers from its checkpoint+WAL (docs/control_plane.md).
    """

    client_id: ClientId
    at_ms: TimeMs
    reconnect_at_ms: Optional[TimeMs] = None
    #: When set, this window targets shard host ``shard_index`` instead
    #: of a client; ``client_id`` is ignored (conventionally -1).
    shard_index: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0 <= self.at_ms < inf:
            raise ConfigurationError(
                f"crash time must be finite and >= 0, got {self.at_ms}"
            )
        back = self.reconnect_at_ms
        if back is not None and not self.at_ms < back < inf:
            raise ConfigurationError(
                f"reconnect at {back} must be finite and follow crash at {self.at_ms}"
            )
        if self.shard_index is not None and self.shard_index < 0:
            raise ConfigurationError(
                f"shard index must be >= 0, got {self.shard_index}"
            )

    @property
    def is_shard(self) -> bool:
        """True when this window crashes a shard host, not a client."""
        return self.shard_index is not None

    @property
    def target_label(self) -> str:
        """Human-readable target for error messages: ``"s2"`` or ``"7"``."""
        if self.shard_index is not None:
            return f"s{self.shard_index}"
        return str(self.client_id)

    @property
    def spec(self) -> str:
        """This window in crash-plan syntax, e.g. ``"s2@1500:3500"``."""
        back = self.reconnect_at_ms
        return f"{self.target_label}@{self.at_ms:g}" + (
            f":{back:g}" if back is not None else ""
        )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "client_id": self.client_id,
            "at_ms": self.at_ms,
            "reconnect_at_ms": self.reconnect_at_ms,
        }
        if self.shard_index is not None:
            data["shard_index"] = self.shard_index
        return data

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "CrashWindow":
        return CrashWindow(
            client_id=data["client_id"],
            at_ms=data["at_ms"],
            reconnect_at_ms=data.get("reconnect_at_ms"),
            shard_index=data.get("shard_index"),
        )


def validate_crash_windows(
    windows: Iterable[CrashWindow],
    *,
    shards: Optional[int] = None,
    clients: Optional[int] = None,
) -> None:
    """Reject a crash plan that cannot be scheduled, naming the entry.

    Two windows for one client (or one shard) overlap when the second
    crash fires while the first is still in effect — i.e. before the
    first reconnect, or ever, when the first window never reconnects;
    scheduling such a plan would double-crash the host.  Given the
    run's ``clients`` and ``shards``, every target must also exist, and
    at every shard crash at least one shard must stay up — so a
    one-shard run takes no shard window at all.  A shard restarting at
    the very instant another crashes counts as down: the order of the
    two events is not a property of the plan.
    """
    windows = list(windows)
    by_target: Dict[Tuple[str, int], list] = {}
    for window in windows:
        key = ("s", window.shard_index) if window.is_shard else ("c", window.client_id)
        by_target.setdefault(key, []).append(window)
    for group in by_target.values():
        group.sort(key=lambda w: (w.at_ms, w.reconnect_at_ms or float("inf")))
        for prev, nxt in zip(group, group[1:]):
            clear_at = prev.reconnect_at_ms
            if clear_at is None or nxt.at_ms < clear_at:
                raise ConfigurationError(
                    f"crash-plan entry {nxt.spec!r} overlaps earlier window "
                    f"{prev.spec!r} for the same target"
                )
    for window in windows:
        if window.is_shard:
            target, count, noun = window.shard_index, shards, "shard"
        else:
            target, count, noun = window.client_id, clients, "client"
        if count is not None and not 0 <= target < count:
            raise ConfigurationError(
                f"crash-plan entry {window.spec!r} targets {noun} {target}, "
                f"but the run has {count} {noun}(s)"
            )
    shard_windows = [w for w in windows if w.is_shard] if shards is not None else []
    for window in shard_windows:
        down = [
            other for other in shard_windows
            if other.at_ms <= window.at_ms
            and (other.reconnect_at_ms is None or window.at_ms <= other.reconnect_at_ms)
        ]
        if len({other.shard_index for other in down}) == shards:
            raise ConfigurationError(
                f"crash plan takes every shard down at {window.at_ms:g} ms "
                f"({', '.join(other.spec for other in down)}); at least one "
                "shard must stay up"
            )


def split_plan(text: str, separator: str, what: str) -> List[str]:
    """The stripped ``separator``-separated parts of a CLI plan string
    (``--crash-plan``, ``--adversary``); blank text has none.  An empty
    part — ``a,,b``, a trailing ``,``, an id list ending in ``+`` — is a
    :class:`ConfigurationError` naming ``what``, never skipped.

    >>> split_plan(" 0@800, s1@900 ", ",", "crash-plan entry")
    ['0@800', 's1@900']
    >>> split_plan("", ",", "crash-plan entry")
    []
    >>> split_plan("3+", "+", "client id")
    Traceback (most recent call last):
    ...
    repro.errors.ConfigurationError: empty client id in '3+'
    """
    if not text.strip():
        return []
    parts = [part.strip() for part in text.split(separator)]
    if "" in parts:
        raise ConfigurationError(f"empty {what} in {text!r}")
    return parts


def parse_crash_plan(text: str) -> Tuple[CrashWindow, ...]:
    """Parse the CLI crash-plan syntax into :class:`CrashWindow` tuples.

    Syntax: comma-separated ``TARGET@CRASH_MS[:RECONNECT_MS]`` entries
    where ``TARGET`` is a client id or ``s<K>`` for shard host K, e.g.
    ``"0@800"`` (client 0 dies at t=800ms, stays dead),
    ``"0@800:2500,3@1200"``, or ``"s1@2000:6000"`` (shard 1's host
    crashes at t=2000ms and restarts from its checkpoint+WAL at
    t=6000ms).  Duplicate or overlapping windows for the same target
    are rejected (they would double-crash the host).
    """
    windows = []
    for chunk in split_plan(text, ",", "crash-plan entry"):
        try:
            target_part, at, when_part = chunk.partition("@")
            if not at:
                raise ValueError("missing '@'")
            if not when_part:
                raise ValueError("missing crash time after '@'")
            crash_part, _, reconnect_part = when_part.partition(":")
            shard = target_part[:1] in ("s", "S")
            windows.append(
                CrashWindow(
                    client_id=-1 if shard else int(target_part),
                    at_ms=float(crash_part),
                    reconnect_at_ms=float(reconnect_part) if reconnect_part else None,
                    shard_index=int(target_part[1:]) if shard else None,
                )
            )
        except (ValueError, ConfigurationError) as exc:
            raise ConfigurationError(
                f"bad crash-plan entry {chunk!r} "
                f"(expected CLIENT@CRASH_MS[:RECONNECT_MS] or sK@...): {exc}"
            ) from exc
    validate_crash_windows(windows)
    return tuple(windows)


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded description of everything that goes wrong.

    The plan is pure data (serializable via :meth:`to_dict`); the
    per-run RNG state lives in the :class:`FaultInjector` built from it.
    """

    #: Probability each message is dropped on the wire.
    loss_rate: float = 0.0
    #: Extra per-message delay drawn uniformly from [0, jitter_ms].
    jitter_ms: TimeMs = 0.0
    #: Probability a delivered message is delivered a second time.
    duplicate_rate: float = 0.0
    #: Seed for the dedicated fault RNG.
    seed: int = 0
    partitions: Tuple[Partition, ...] = ()
    crashes: Tuple[CrashWindow, ...] = ()

    def __post_init__(self) -> None:
        if not (0.0 <= self.loss_rate < 1.0):
            raise ConfigurationError(
                f"loss_rate must be in [0, 1), got {self.loss_rate}"
            )
        if not (0.0 <= self.duplicate_rate < 1.0):
            raise ConfigurationError(
                f"duplicate_rate must be in [0, 1), got {self.duplicate_rate}"
            )
        if not 0 <= self.jitter_ms < inf:
            raise ConfigurationError(
                f"jitter_ms must be finite and >= 0, got {self.jitter_ms}"
            )
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "crashes", tuple(self.crashes))

    @property
    def is_null(self) -> bool:
        """True when this plan injects nothing at all.

        A null plan must be indistinguishable from no plan (the
        differential test's contract), so everything gated on faults
        checks ``SimulationSettings.faults_active`` (a layer that sees
        only a plan checks ``plan is not None and not plan.is_null``).
        """
        return (
            self.loss_rate == 0.0
            and self.jitter_ms == 0.0
            and self.duplicate_rate == 0.0
            and not self.partitions
            and not self.crashes
        )

    @property
    def shard_crashes(self) -> Tuple[CrashWindow, ...]:
        """The crash windows targeting shard hosts."""
        return tuple(w for w in self.crashes if w.is_shard)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "loss_rate": self.loss_rate,
            "jitter_ms": self.jitter_ms,
            "duplicate_rate": self.duplicate_rate,
            "seed": self.seed,
            "partitions": [p.to_dict() for p in self.partitions],
            "crashes": [c.to_dict() for c in self.crashes],
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FaultPlan":
        return FaultPlan(
            loss_rate=data.get("loss_rate", 0.0),
            jitter_ms=data.get("jitter_ms", 0.0),
            duplicate_rate=data.get("duplicate_rate", 0.0),
            seed=data.get("seed", 0),
            partitions=tuple(
                Partition.from_dict(p) for p in data.get("partitions", ())
            ),
            crashes=tuple(CrashWindow.from_dict(c) for c in data.get("crashes", ())),
        )


class FaultInjector:
    """Per-run fault oracle: one seeded RNG, one verdict per message."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)

    def decide(
        self, src: ClientId, dst: ClientId, now: TimeMs
    ) -> Tuple[bool, TimeMs, bool]:
        """The fate of one message: ``(drop, extra_delay_ms, duplicate)``.

        Partitioned messages are dropped without consuming a loss draw;
        each enabled feature consumes exactly one draw per message so
        the stream replays identically run-to-run.
        """
        plan = self.plan
        dropped = any(p.severs(src, dst, now) for p in plan.partitions)
        if not dropped and plan.loss_rate > 0.0:
            dropped = self.rng.random() < plan.loss_rate
        extra_delay = 0.0
        if plan.jitter_ms > 0.0:
            extra_delay = self.rng.random() * plan.jitter_ms
        duplicate = False
        if plan.duplicate_rate > 0.0 and not dropped:
            duplicate = self.rng.random() < plan.duplicate_rate
        return dropped, extra_delay, duplicate


# ---------------------------------------------------------------------------
# Surviving the plan (Section III-C): constants and functions of the RTT
# ---------------------------------------------------------------------------
#: End-to-end resubmissions of one action before its client gives up.
RETRY_MAX_ATTEMPTS = 6
#: Period of every client's heartbeat when the plan crashes anything.
HEARTBEAT_INTERVAL_MS: TimeMs = 1_000.0
#: Silence (no heartbeat, no other message) after which a server
#: presumes a client dead and evicts it; its sweep runs every half
#: timeout.
LIVENESS_TIMEOUT_MS: TimeMs = 5_000.0


def retry_delay(attempt: int, rtt_ms: TimeMs, rng: random.Random) -> TimeMs:
    """Wait before end-to-end resubmission number ``attempt`` (0-based).

    The timeout is well past one round trip plus ARQ recovery,
    ``max(4 rtt, 400)`` ms; it doubles per attempt up to twice itself.
    Jitter of up to ``0.1 max(rtt, 100)`` ms is drawn from the *client's
    own* seeded RNG, never the shared fault RNG (so retries do not
    perturb fault decisions).
    """
    timeout = max(4.0 * rtt_ms, 400.0)
    base = min(timeout * (2.0**attempt), 2.0 * timeout)
    return base + rng.random() * (0.1 * max(rtt_ms, 100.0))
