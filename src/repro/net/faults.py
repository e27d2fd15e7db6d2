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

The module also hosts the knobs for surviving the faults:
:class:`RetryPolicy` (client-side end-to-end resubmission),
:class:`ReliabilityConfig` (the network's ARQ transport), and
:class:`LivenessConfig` (server-side heartbeat eviction, Section III-C).
"""

from __future__ import annotations

import random
from math import inf
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple

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


def validate_crash_windows(windows: Iterable[CrashWindow]) -> None:
    """Reject duplicate or overlapping windows for the same target.

    Two windows for one client (or one shard) overlap when the second
    crash fires while the first is still in effect — i.e. before the
    first reconnect, or ever, when the first window never reconnects.
    Scheduling such a plan would double-crash the host, so it is a
    configuration error naming the offending entry.
    """
    by_target: Dict[Tuple[str, int], list] = {}
    for window in windows:
        key = ("s", window.shard_index) if window.is_shard else ("c", window.client_id)
        by_target.setdefault(key, []).append(window)
    for group in by_target.values():
        group.sort(key=lambda w: (w.at_ms, w.reconnect_at_ms or float("inf")))
        for prev, nxt in zip(group, group[1:]):
            clear_at = prev.reconnect_at_ms
            if clear_at is None or nxt.at_ms < clear_at:
                prev_desc = f"{prev.target_label}@{prev.at_ms:g}" + (
                    f":{prev.reconnect_at_ms:g}" if prev.reconnect_at_ms else ""
                )
                nxt_desc = f"{nxt.target_label}@{nxt.at_ms:g}" + (
                    f":{nxt.reconnect_at_ms:g}" if nxt.reconnect_at_ms else ""
                )
                raise ConfigurationError(
                    f"crash-plan entry {nxt_desc!r} overlaps earlier window "
                    f"{prev_desc!r} for the same target"
                )


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
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            target_part, _, when_part = chunk.partition("@")
            if not when_part:
                raise ValueError("missing '@'")
            crash_part, _, reconnect_part = when_part.partition(":")
            at_ms = float(crash_part)
            reconnect = float(reconnect_part) if reconnect_part else None
            if target_part.startswith("s") or target_part.startswith("S"):
                windows.append(
                    CrashWindow(
                        client_id=-1,
                        at_ms=at_ms,
                        reconnect_at_ms=reconnect,
                        shard_index=int(target_part[1:]),
                    )
                )
            else:
                windows.append(
                    CrashWindow(
                        client_id=int(target_part),
                        at_ms=at_ms,
                        reconnect_at_ms=reconnect,
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
        checks ``plan is not None and not plan.is_null``.
        """
        return (
            self.loss_rate == 0.0
            and self.jitter_ms == 0.0
            and self.duplicate_rate == 0.0
            and not self.partitions
            and not self.crashes
        )

    @property
    def client_crashes(self) -> Tuple[CrashWindow, ...]:
        """The crash windows targeting clients."""
        return tuple(w for w in self.crashes if not w.is_shard)

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
# Survival knobs
# ---------------------------------------------------------------------------
#: End-to-end resubmissions of one action before its client gives up.
RETRY_MAX_ATTEMPTS = 6


@dataclass(frozen=True)
class RetryPolicy:
    """End-to-end client resubmission: capped exponential backoff.

    Attempt *k* (0-based) is retried after
    ``min(timeout_ms * backoff**k, max_timeout_ms) + U(0, jitter_ms)``
    where the jitter is drawn from the *client's own* seeded RNG, never
    the shared fault RNG (so retries do not perturb fault decisions).
    A client gives up on an action after :data:`RETRY_MAX_ATTEMPTS`.
    """

    timeout_ms: TimeMs = 1_000.0
    backoff: float = 2.0
    max_timeout_ms: TimeMs = 8_000.0
    jitter_ms: TimeMs = 0.0

    def __post_init__(self) -> None:
        if self.timeout_ms <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {self.timeout_ms}")
        if self.backoff < 1.0:
            raise ConfigurationError(f"backoff must be >= 1, got {self.backoff}")

    def delay(self, attempt: int, rng: random.Random) -> TimeMs:
        """Wait before resubmission number ``attempt`` (0-based)."""
        base = min(self.timeout_ms * (self.backoff**attempt), self.max_timeout_ms)
        if self.jitter_ms > 0.0:
            base += rng.random() * self.jitter_ms
        return base

    @staticmethod
    def for_rtt(rtt_ms: TimeMs) -> "RetryPolicy":
        """A sane policy for a known round-trip time: time out well past
        one round trip plus ARQ recovery, cap the backoff at a few
        multiples."""
        timeout = max(4.0 * rtt_ms, 400.0)
        return RetryPolicy(
            timeout_ms=timeout,
            backoff=2.0,
            max_timeout_ms=2.0 * timeout,
            jitter_ms=0.1 * max(rtt_ms, 100.0),
        )


@dataclass(frozen=True)
class ReliabilityConfig:
    """The network-level ARQ transport (selective repeat + cumulative
    ACKs) that restores per-link reliable FIFO delivery over a lossy
    plan.  Sits *below* the handler layer, so every architecture
    inherits it without protocol changes.  The retransmit timeout
    starts at ``rto_ms`` and doubles per retry up to ``max_rto_ms``."""

    rto_ms: TimeMs = 500.0
    max_rto_ms: TimeMs = 4_000.0
    #: Retransmissions of one packet before the sender gives up on it
    #: (the receiver is told to advance past the abandoned sequence).
    max_retries: int = 10

    def __post_init__(self) -> None:
        if self.rto_ms <= 0:
            raise ConfigurationError(f"rto must be > 0, got {self.rto_ms}")
        if self.max_retries < 1:
            raise ConfigurationError(
                f"max_retries must be >= 1, got {self.max_retries}"
            )

    @staticmethod
    def for_rtt(rtt_ms: TimeMs) -> "ReliabilityConfig":
        rto = 2.0 * rtt_ms + 100.0
        return ReliabilityConfig(rto_ms=rto, max_rto_ms=8.0 * rto)


@dataclass(frozen=True)
class LivenessConfig:
    """Server-side liveness tracking (Section III-C).

    Clients send heartbeats every ``heartbeat_interval_ms``; a client
    not heard from (heartbeat *or* protocol message) for ``timeout_ms``
    is presumed dead and evicted.  The eviction sweep runs every half
    timeout (``timeout_ms / 2``)."""

    heartbeat_interval_ms: TimeMs = 1_000.0
    timeout_ms: TimeMs = 5_000.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval_ms <= 0:
            raise ConfigurationError(
                f"heartbeat interval must be > 0, got {self.heartbeat_interval_ms}"
            )
        if self.timeout_ms <= self.heartbeat_interval_ms:
            raise ConfigurationError(
                "liveness timeout must exceed the heartbeat interval "
                f"({self.timeout_ms} <= {self.heartbeat_interval_ms})"
            )
