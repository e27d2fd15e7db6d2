"""The gsn lease without an engine (:class:`repro.core.control_plane.GsnLease`,
docs/control_plane.md): K fake peers exchanging lease messages through a
list, a hand-stepped clock, and a dead-set per peer standing in for the
crash oracle.  No simulator, network or shard server is built.
"""

from __future__ import annotations

from repro.core.chassis import bound_handlers
from repro.core.control_plane import (
    LEASE_HEARTBEAT_MS,
    LEASE_TIMEOUT_MS,
    GsnLease,
    lease_candidate,
)
from repro.core.messages import (
    LeaseGrant,
    LeaseHeartbeat,
    LeaseRequest,
    LeaseVote,
)

class Cluster:
    """K leases wired to one in-memory wire."""

    def __init__(self, shards: int = 3, moves: bool = True):
        self.now = 0.0
        #: Undelivered messages, oldest first: (from shard, to shard, message).
        self.wire: list = []
        self.dead = [set() for _ in range(shards)]
        self.moved = [0] * shards
        self.shards = shards
        self.moves = moves
        self.leases = [self._lease(shard) for shard in range(shards)]

    def _lease(self, shard: int) -> GsnLease:
        def send_peer(dst, message):
            self.wire.append((shard, dst, message))

        def broadcast(message):
            for dst in range(self.shards):
                if dst != shard and dst not in self.dead[shard]:
                    send_peer(dst, message)

        def on_moved():
            self.moved[shard] += 1

        return GsnLease(
            shard,
            self.shards,
            self.moves,
            send_peer=send_peer,
            broadcast=broadcast,
            now=lambda: self.now,
            dead=self.dead[shard],
            on_moved=on_moved,
        )

    def crash(self, shard: int) -> None:
        """The crash oracle: every survivor learns ``shard`` is down."""
        for peer in range(self.shards):
            if peer != shard:
                self.dead[peer].add(shard)

    def deliver(self, *, silent=()) -> list:
        """Hand every message on the wire (and the replies it causes) to
        its destination; messages to ``silent`` shards are lost.
        Returns what was delivered."""
        delivered = []
        while self.wire:
            src, dst, message = self.wire.pop(0)
            if dst in silent:
                continue
            delivered.append((src, dst, message))
            bound_handlers(self.leases[dst])[type(message)](src, message)
        return delivered

    def sent(self, kind: type) -> list:
        return [(src, dst) for src, dst, m in self.wire if type(m) is kind]


def test_term_zero_is_pre_granted_and_nobody_campaigns_while_beats_arrive():
    cluster = Cluster()
    timers = [lease.start() for lease in cluster.leases]
    assert all(
        [period for period, _ in armed] == [LEASE_HEARTBEAT_MS, LEASE_TIMEOUT_MS / 2]
        for armed in timers
    )
    assert [(l.term, l.holder, l.is_holder) for l in cluster.leases] == [
        (0, 0, True), (0, 0, False), (0, 0, False),
    ]
    for _ in range(24):  # six lease timeouts' worth of beats
        cluster.now += LEASE_HEARTBEAT_MS
        for lease in cluster.leases:
            lease.beat()  # only the holder's beat says anything
        delivered = cluster.deliver()
        assert [type(m) for _, _, m in delivered] == [LeaseHeartbeat] * 2
        for lease in cluster.leases:
            lease.check()
        assert cluster.wire == []
    assert [l.term for l in cluster.leases] == [0, 0, 0]
    assert cluster.moved == [0, 0, 0]


def test_a_silent_holder_is_suspected_after_the_timeout_and_only_the_candidate_campaigns():
    cluster = Cluster()
    for lease in cluster.leases:
        lease.start()
    cluster.now = LEASE_TIMEOUT_MS - 1.0
    for lease in cluster.leases:
        lease.check()
    assert cluster.wire == []  # not yet
    cluster.now = LEASE_TIMEOUT_MS
    candidate = lease_candidate(1, 3, set())
    assert candidate == 1
    for lease in cluster.leases:
        lease.check()
    assert cluster.sent(LeaseRequest) == [(1, 0), (1, 2)]
    assert cluster.leases[1].campaign_term == 1
    assert cluster.leases[2].campaign_term is None
    # The holder is silent, not known dead: its vote is still required,
    # so the round stays open — and a second check does not re-request.
    cluster.deliver(silent={0})
    cluster.leases[1].check()
    assert cluster.wire == [] and cluster.leases[1].term == 0
    # The oracle reports it dead: the votes already in suffice.
    cluster.crash(0)
    cluster.leases[1].on_vote(2, LeaseVote(1, 2, -1))
    assert cluster.leases[1].is_holder and cluster.leases[1].term == 1


def test_a_known_dead_holder_is_replaced_without_waiting_for_the_timeout():
    cluster = Cluster()
    for lease in cluster.leases:
        lease.start()
    cluster.crash(0)
    cluster.now = 1.0
    for shard in (1, 2):
        cluster.leases[shard].check()
    cluster.deliver()
    assert [(l.term, l.holder) for l in cluster.leases[1:]] == [(1, 1), (1, 1)]
    assert cluster.moved == [0, 1, 1]
    (event,) = cluster.leases[1].log
    assert (event.term, event.holder, event.at_ms, event.latency_ms) == (1, 1, 1.0, 0.0)
    assert cluster.leases[2].log == []


def test_a_voter_votes_once_per_term_and_ignores_stale_terms():
    cluster = Cluster()
    voter = cluster.leases[2]
    voter.observe_gsn(17)
    voter.on_request(1, LeaseRequest(1, 1))
    voter.on_request(1, LeaseRequest(1, 1))  # duplicate
    voter.on_request(0, LeaseRequest(1, 0))  # a second candidate, same term
    voter.on_request(1, LeaseRequest(0, 1))  # a term already over
    assert cluster.wire == [(2, 1, LeaseVote(1, 2, 17))]
    voter.on_request(0, LeaseRequest(2, 0))  # a newer term gets a new vote
    assert cluster.sent(LeaseVote) == [(2, 1), (2, 0)]
    # A vote for a round this shard is not running changes nothing.
    cluster.leases[1].on_vote(2, LeaseVote(5, 2, 99))
    assert cluster.leases[1].votes == {} and cluster.leases[1].term == 0


def test_the_winners_gsn_floor_clears_every_votes_high_water():
    cluster = Cluster()
    for gsn in range(8):
        assert cluster.leases[0].assign_gsn() == gsn
    cluster.leases[1].observe_gsn(7)
    cluster.leases[2].observe_gsn(41)  # saw splices the candidate never did
    cluster.crash(0)
    cluster.leases[1].check()
    delivered = cluster.deliver()
    (grant,) = [m for _, _, m in delivered if type(m) is LeaseGrant]
    assert grant == LeaseGrant(1, 1, 42)
    assert cluster.leases[1].assign_gsn() == 42
    assert cluster.leases[1].gsn_high == 42


def test_at_k2_the_lone_survivor_self_grants():
    cluster = Cluster(shards=2)
    for lease in cluster.leases:
        lease.start()
    cluster.crash(0)
    cluster.leases[1].check()
    assert cluster.wire == []  # nobody left to ask or tell
    survivor = cluster.leases[1]
    assert (survivor.term, survivor.holder, survivor.is_holder) == (1, 1, True)
    assert cluster.moved == [0, 1]


def test_a_restarted_ex_holder_learns_the_new_term_from_the_catch_up_heartbeat():
    cluster = Cluster()
    cluster.crash(0)
    cluster.leases[1].check()
    cluster.deliver()
    # Shard 0 restarts as a fresh incarnation that still believes in term 0.
    cluster.leases[0] = reborn = cluster._lease(0)
    reborn.resume(next_gsn=5, gsn_high=4)
    for peer in (1, 2):
        cluster.dead[peer].discard(0)
    assert reborn.is_holder and reborn.term == 0
    cluster.leases[2].catch_up(0)  # not the holder: says nothing
    assert cluster.wire == []
    cluster.leases[1].catch_up(0)
    assert cluster.wire == [(1, 0, LeaseHeartbeat(1, 1))]
    cluster.deliver()
    assert (reborn.term, reborn.holder, reborn.is_holder) == (1, 1, False)
    assert cluster.moved[0] == 1
    assert (reborn.next_gsn, reborn.gsn_high) == (5, 4)
    # No longer the holder, it has nothing to beat.
    reborn.beat()
    assert cluster.wire == []


def test_the_pinned_lease_arms_no_timer_and_sends_nothing():
    cluster = Cluster(moves=False)
    assert [lease.start() for lease in cluster.leases] == [[], [], []]
    cluster.leases[0].catch_up(1)
    assert cluster.wire == []
    assert [(l.term, l.holder) for l in cluster.leases] == [(0, 0)] * 3
