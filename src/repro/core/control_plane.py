"""Control plane of the sharded SEVE serializer: the gsn lease.

Two roles belong to one shard at a time: the *sequencer* that assigns
global sequence numbers (gsn) to spanning actions, and the *elastic
controller* that plans boundary rebalances.  Pinned to shard 0 they
are a single point of failure — the reason crash plans were rejected
at K > 1 until the lease landed.

This module holds the data side: a **gsn lease** granted for a *term*
by a round-structured vote among the shard servers (the f-of-n
server-round idiom: one broadcast round per term, every live shard
votes, the round completes when all live voters have answered).  The shard holding the lease sequences every spanning
action and hosts the elastic controller; the lease table is keyed per
border in the data model, but a run over vertical stripes has one
connected border chain, so one holder owns every border per term —
independent per-border holders would interleave gsns inconsistently
at shards that straddle two borders (the per-client strictly-
increasing-gsn audit forbids that).

Failover is deterministic: the holder broadcasts ``LeaseHeartbeat``
over the fault-free backbone; when a shard has not heard one for
``lease_timeout_ms`` it advances the term, and the term's *candidate*
— a fixed rotation, ``term mod K``, skipping shards known dead —
broadcasts ``LeaseRequest``.  Voters answer at most one candidate per
term with ``LeaseVote`` carrying the highest gsn they have observed;
when every live shard has voted the candidate installs itself with
``LeaseGrant`` and a gsn floor above every vote, so re-sequenced
spans never reuse a number.  The simulator's crash oracle is a
perfect failure detector, which is what lets the round wait for *all*
live voters (at K = 2 the lone survivor self-grants) instead of a
strict majority of the original membership.

Every shard server holds a :class:`LeaseState`, and term 0 is
pre-granted to shard 0.  ``--control-plane single`` is
:data:`PINNED_LEASE`, the config whose lease never times out: no
heartbeat or check timer is armed, so no lease message is ever sent and
shard 0 sequences for the whole run.  ``--control-plane replicated``
is the default :class:`ControlPlaneConfig`.  See docs/control_plane.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import ConfigurationError
from repro.types import TimeMs


@dataclass(frozen=True)
class ControlPlaneConfig:
    """Knobs of the gsn lease (defaults: ``--control-plane replicated``)."""

    #: Period of the leaseholder's ``LeaseHeartbeat`` broadcast.
    heartbeat_interval_ms: TimeMs = 500.0
    #: Silence after which a shard suspects the holder and advances the
    #: term.  Must cover several heartbeats so a busy holder is not
    #: deposed spuriously (the backbone is fault-free, so only a real
    #: crash silences it).  ``math.inf`` pins the lease to its term-0
    #: holder (:data:`PINNED_LEASE`).
    lease_timeout_ms: TimeMs = 2_000.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval_ms <= 0:
            raise ConfigurationError(
                "heartbeat interval must be > 0, got "
                f"{self.heartbeat_interval_ms}"
            )
        if self.lease_timeout_ms <= 2 * self.heartbeat_interval_ms:
            raise ConfigurationError(
                "lease timeout must exceed two heartbeat intervals "
                f"({self.lease_timeout_ms} <= "
                f"{2 * self.heartbeat_interval_ms})"
            )

    @property
    def check_interval_ms(self) -> TimeMs:
        """How often non-holders re-check the holder's silence."""
        return self.lease_timeout_ms / 2.0

    @property
    def fails_over(self) -> bool:
        """Whether a silent holder is ever deposed (the timeout is
        finite); otherwise the lease stays where term 0 put it."""
        return math.isfinite(self.lease_timeout_ms)


#: ``--control-plane single``: the lease that never times out.
PINNED_LEASE = ControlPlaneConfig(lease_timeout_ms=math.inf)


def lease_candidate(term: int, shards: int, dead: Set[int]) -> int:
    """The deterministic candidate for ``term``: a fixed rotation over
    the shard indices, skipping shards known dead.  Every live shard
    computes the same answer from the same (term, dead-set), so at most
    one candidate campaigns per term."""
    for offset in range(shards):
        shard = (term + offset) % shards
        if shard not in dead:
            return shard
    return term % shards  # everyone dead: degenerate, never reached


@dataclass
class FailoverEvent:
    """One completed lease transfer, for the report layer and bench."""

    term: int
    holder: int
    at_ms: TimeMs
    #: Time from first suspicion of the old holder to the grant.
    latency_ms: TimeMs

    def to_dict(self) -> Dict[str, float]:
        return {
            "term": self.term,
            "holder": self.holder,
            "at_ms": self.at_ms,
            "latency_ms": self.latency_ms,
        }


@dataclass
class LeaseState:
    """One shard's view of the gsn lease — a pure state machine; the
    shard server owns all message I/O and timers."""

    shard_index: int
    shards: int
    #: Current term and its holder.  Term 0 is pre-granted to shard 0
    #: (the classic sequencer) so a clean run never elects.
    term: int = 0
    holder: int = 0
    #: Highest term this shard has voted in (one vote per term).
    voted_term: int = -1
    #: Virtual time of the last heartbeat heard from the holder.
    last_beat_ms: TimeMs = 0.0
    #: When this shard first suspected the current holder (for the
    #: failover-latency metric); ``None`` while the holder looks alive.
    suspected_at_ms: Optional[TimeMs] = None
    #: Votes gathered while campaigning: voter -> max gsn observed.
    votes: Dict[int, int] = field(default_factory=dict)
    #: The term this shard is campaigning in, if any.
    campaign_term: Optional[int] = None
    #: Completed failovers observed locally (holder side appends).
    log: List[FailoverEvent] = field(default_factory=list)

    @property
    def is_holder(self) -> bool:
        return self.holder == self.shard_index

    def suspicious(self, now: TimeMs, timeout: TimeMs) -> bool:
        """Whether the holder has been silent past the lease timeout."""
        return now - self.last_beat_ms >= timeout

    def heard_from(self, holder: int, term: int, now: TimeMs) -> None:
        """Record a heartbeat (or grant) from the current-or-newer holder."""
        if term < self.term:
            return  # stale sender; ignore
        if term > self.term:
            self.term = term
            self.holder = holder
            self.campaign_term = None
            self.votes.clear()
        self.last_beat_ms = now
        self.suspected_at_ms = None

    def start_campaign(self, term: int, now: TimeMs) -> None:
        self.campaign_term = term
        self.votes = {self.shard_index: -1}
        if self.suspected_at_ms is None:
            self.suspected_at_ms = now

    def record_vote(self, term: int, voter: int, max_gsn: int) -> None:
        if term == self.campaign_term:
            self.votes[voter] = max_gsn

    def quorum_reached(self, live: Set[int]) -> bool:
        """All live shards (self included) have voted in our campaign."""
        if self.campaign_term is None:
            return False
        return live.issubset(self.votes.keys())

    def gsn_floor(self, own_max: int) -> int:
        """First gsn the new holder may assign: past every vote and our
        own high-water mark."""
        return max([own_max, *self.votes.values()]) + 1
