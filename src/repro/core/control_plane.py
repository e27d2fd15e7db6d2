"""Control plane of the sharded SEVE serializer: the gsn lease.

Two roles belong to one shard at a time: the *sequencer* that assigns
global sequence numbers (gsn) to spanning actions, and the *elastic
controller* that plans boundary rebalances.  Pinned to shard 0 they
are a single point of failure — the reason crash plans were rejected
at K > 1 until the lease landed.

This module holds the whole protocol: a **gsn lease** granted for a
*term* by a round-structured vote among the shard servers (the f-of-n
server-round idiom: one broadcast round per term, every live shard
votes, the round completes when all live voters have answered).
:class:`GsnLease` is one shard's end of it — state, election, timers and
the gsn counter — as a transport-free unit: messages in, messages out
through two callables of its host, a clock, and an ``on_moved``
callback (tests/test_gsn_lease.py drives three of them with no engine).
The shard holding the lease sequences every spanning
action and hosts the elastic controller; the lease table is keyed per
border in the data model, but a run over vertical stripes has one
connected border chain, so one holder owns every border per term —
independent per-border holders would interleave gsns inconsistently
at shards that straddle two borders (the per-client strictly-
increasing-gsn audit forbids that).

Failover is deterministic: the holder broadcasts ``LeaseHeartbeat``
over the fault-free backbone every :data:`LEASE_HEARTBEAT_MS`; when a
shard has not heard one for :data:`LEASE_TIMEOUT_MS` it advances the
term, and the term's *candidate* — a fixed rotation, ``term mod K``,
skipping shards known dead — broadcasts ``LeaseRequest``.  Voters
answer at most one candidate per term with ``LeaseVote`` carrying the
highest gsn they have observed; when every live shard has voted the
candidate installs itself with ``LeaseGrant`` and a gsn floor above
every vote, so re-sequenced spans never reuse a number.  The simulator's crash oracle is a
perfect failure detector, which is what lets the round wait for *all*
live voters (at K = 2 the lone survivor self-grants) instead of a
strict majority of the original membership.

Every shard server hosts a :class:`GsnLease`, and term 0 is
pre-granted to shard 0.  Whether the lease can move follows from the
run's fault plan (:class:`repro.core.chassis.EngineChassis` derives it
with the rest of the fault-tolerance stack): a plan that schedules a
shard crash gets a lease that moves; on any other run the lease is
pinned — no heartbeat or check timer is armed, so no lease message is
ever sent and shard 0 sequences for the whole run.  See
docs/control_plane.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.messages import LeaseGrant, LeaseHeartbeat, LeaseRequest, LeaseVote
from repro.types import TimeMs

#: Period of the leaseholder's ``LeaseHeartbeat`` broadcast.
LEASE_HEARTBEAT_MS: TimeMs = 500.0
#: Silence after which a shard suspects the holder and advances the
#: term; non-holders re-check every half timeout.  It covers several
#: heartbeats so a busy holder is not deposed spuriously (the backbone
#: is fault-free, so only a real crash silences it).
LEASE_TIMEOUT_MS: TimeMs = 2_000.0


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


class GsnLease:
    """One shard's end of the gsn lease: its view of the term and the
    holder, the election that moves them, and the gsn counter the
    holder assigns from — a transport-free state machine.

    Messages come in through :attr:`HANDLERS` (``handler(src,
    message)``; the host binds them with
    :func:`~repro.core.chassis.bound_handlers` and merges them into its
    dispatch table) and time through ``now()``; everything the lease
    says goes out through the host's ``send_peer(shard, message)`` and
    ``broadcast(message)``.  ``moves`` says whether a silent holder is
    ever deposed; otherwise the lease stays where term 0 put it.
    ``dead`` is the host's live set of shards known down (the
    simulation's perfect failure detector) and ``on_moved()`` is called
    after the holder changed.  :meth:`start` hands the host the two
    timers to run.  ``src`` is unused throughout: every lease message
    names its sender's shard in a field.
    """

    #: Dispatch table, in the form of the servers' ``HANDLERS``.
    HANDLERS = {
        LeaseHeartbeat: "on_heartbeat",
        LeaseRequest: "on_request",
        LeaseVote: "on_vote",
        LeaseGrant: "on_grant",
    }

    def __init__(
        self,
        shard_index: int,
        shards: int,
        moves: bool,
        *,
        send_peer: Callable[[int, object], None],
        broadcast: Callable[[object], None],
        now: Callable[[], TimeMs],
        dead: Set[int],
        on_moved: Callable[[], None],
    ) -> None:
        self.shard_index = shard_index
        self.shards = shards
        self.moves = moves
        self.send_peer = send_peer
        self.broadcast = broadcast
        self.now = now
        self.dead = dead
        self.on_moved = on_moved
        #: Current term and its holder.  Term 0 is pre-granted to shard 0
        #: (the classic sequencer) so a clean run never elects.
        self.term = 0
        self.holder = 0
        #: Highest term this shard has voted in (one vote per term).
        self.voted_term = -1
        #: Virtual time of the last heartbeat heard from the holder.
        self.last_beat_ms: TimeMs = 0.0
        #: When this shard first suspected the current holder (for the
        #: failover-latency metric); ``None`` while the holder looks alive.
        self.suspected_at_ms: Optional[TimeMs] = None
        #: The term this shard is campaigning in, if any, and the votes
        #: gathered for it: voter -> max gsn observed.
        self.campaign_term: Optional[int] = None
        self.votes: Dict[int, int] = {}
        #: Completed failovers this shard won.
        self.log: List[FailoverEvent] = []
        #: Next gsn to assign (meaningful on the holder) and the highest
        #: gsn this shard has observed (its vote payload).
        self.next_gsn = 0
        self.gsn_high = -1

    @property
    def is_holder(self) -> bool:
        return self.holder == self.shard_index

    def start(self) -> List[Tuple[TimeMs, Callable[[], None]]]:
        """The ``(period_ms, callback)`` timers the host must run: none
        for a lease that cannot move.  Seeds the beat clock, so a shard
        (re)started now does not instantly suspect the holder."""
        if not self.moves:
            return []
        self.last_beat_ms = self.now()
        return [
            (LEASE_HEARTBEAT_MS, self.beat),
            (LEASE_TIMEOUT_MS / 2.0, self.check),
        ]

    # -- the gsn counter ------------------------------------------------
    def assign_gsn(self) -> int:
        """Holder side: the next global sequence number."""
        gsn = self.next_gsn
        self.next_gsn += 1
        self.observe_gsn(gsn)
        return gsn

    def observe_gsn(self, gsn: int) -> None:
        """Raise the high-water mark this shard votes with."""
        if gsn > self.gsn_high:
            self.gsn_high = gsn

    def resume(self, next_gsn: int, gsn_high: int) -> None:
        """Continue a crashed incarnation's counter (from its recovery
        log): never reuse a gsn it may have issued."""
        self.next_gsn = next_gsn
        self.gsn_high = gsn_high

    # -- timers, and the host's cue that a shard restarted ----------------
    def beat(self) -> None:
        """Holder side: broadcast the lease heartbeat."""
        if self.is_holder:
            self.broadcast(LeaseHeartbeat(self.term, self.shard_index))

    def check(self) -> None:
        """Non-holder side: suspect a silent (or known-dead) holder and
        campaign if this shard is the term's deterministic candidate."""
        if self.is_holder:
            return
        now = self.now()
        if (
            self.holder not in self.dead
            and now - self.last_beat_ms < LEASE_TIMEOUT_MS
        ):
            return
        term = self.term + 1
        if lease_candidate(term, self.shards, self.dead) != self.shard_index:
            return  # the candidate campaigns; we answer its LeaseRequest
        if self.campaign_term == term:
            return  # round already under way, awaiting votes
        self.campaign_term = term
        self.votes = {self.shard_index: self.gsn_high}
        if self.suspected_at_ms is None:
            self.suspected_at_ms = now
        self.broadcast(LeaseRequest(term, self.shard_index))
        self._maybe_win()

    def catch_up(self, shard: int) -> None:
        """Holder side: ``shard`` restarted knowing only term 0; one
        heartbeat teaches it the current term and holder."""
        if self.is_holder and self.moves:
            self.send_peer(shard, LeaseHeartbeat(self.term, self.shard_index))

    # -- handlers ---------------------------------------------------------
    def on_request(self, src, request: LeaseRequest) -> None:
        """Voter side: at most one vote per term, carrying our gsn
        high-water so the winner's floor clears everything we saw."""
        if request.term <= self.term or request.term <= self.voted_term:
            return  # stale round
        self.voted_term = request.term
        self.send_peer(
            request.candidate,
            LeaseVote(request.term, self.shard_index, self.gsn_high),
        )

    def on_vote(self, src, vote: LeaseVote) -> None:
        if vote.term == self.campaign_term:
            self.votes[vote.voter] = vote.max_gsn
        self._maybe_win()

    def _maybe_win(self) -> None:
        """Candidate side: the round completes when every live shard
        has voted (the crash oracle is a perfect failure detector, so
        'live' is exact; at K=2 the lone survivor self-grants).  The
        grant's gsn floor clears every vote and our own high-water."""
        if self.campaign_term is None:
            return
        live = set(range(self.shards)) - self.dead
        if not live.issubset(self.votes.keys()):
            return
        floor = max([self.gsn_high, *self.votes.values()]) + 1
        grant = LeaseGrant(self.campaign_term, self.shard_index, floor)
        self.broadcast(grant)
        self.on_grant(None, grant)

    def on_heartbeat(self, src, beat: LeaseHeartbeat) -> None:
        old_holder = self.holder
        self._heard_from(beat.holder, beat.term)
        if self.holder != old_holder:
            # Catch-up heartbeat after a restart: the lease moved while
            # we were down.
            self.on_moved()

    def on_grant(self, src, grant: LeaseGrant) -> None:
        if grant.term < self.term:
            return
        old_holder = self.holder
        suspected = self.suspected_at_ms
        self._heard_from(grant.holder, grant.term)
        self.campaign_term = None
        if grant.holder == self.shard_index:
            self.next_gsn = max(self.next_gsn, grant.gsn_floor)
            now = self.now()
            since = suspected if suspected is not None else now
            self.log.append(
                FailoverEvent(grant.term, grant.holder, now, now - since)
            )
        if old_holder != grant.holder:
            self.on_moved()

    def _heard_from(self, holder: int, term: int) -> None:
        """Record a heartbeat (or grant) from the current-or-newer holder."""
        if term < self.term:
            return  # stale sender; ignore
        if term > self.term:
            self.term = term
            self.holder = holder
            self.campaign_term = None
            self.votes.clear()
        self.last_beat_ms = self.now()
        self.suspected_at_ms = None
