"""The push cycle's one Algorithm 6 walk per entry, against the full walks.

Within one push cycle the server walks each entry's uncommitted writers
once, as if the client held every one of them
(:func:`~repro.core.closure.all_sent_walk`), and answers every client
that does hold them from that walk (:func:`~repro.core.closure.held_closure`);
every other closure — a writer the client lacks, a late candidate, a
span value entry, a deferral — is walked in full by
:func:`~repro.core.closure.transitive_closure`.  The tests here hold
``IncompleteWorldServer._closure_entries`` with an open cycle to the
answers of the same server without one (the full walk) and of the same
server on ``tests/reference``'s scan (``reference_transitive_closure``):
the same batch, sent marks, high-water marks, stats and cost, call by
call, on hand-built queues and on the random queues of
``tests/test_indexes.py``.  The last test drops a writer between two
real push cycles: a walk kept from the first cycle would answer the
second wrongly.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.core import server_incomplete as server_module
from repro.core.action import ActionId, ActionResult, BlindWrite
from repro.core.closure import QueueEntry, all_sent_walk, held_closure
from repro.core.first_bound import FirstBoundPredicate
from repro.core.server_incomplete import ClientRecord, IncompleteWorldServer
from repro.errors import ProtocolError
from repro.net.host import Host
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.state.objects import WorldObject
from repro.state.versioned import VersionedStore
from repro.types import SERVER_ID
from tests.reference.distribution_reference import reference_transitive_closure
from tests.test_indexes import _random_queue, _SetsAction
from tests.test_push_pending import A, B, C, SPOTS, TOKEN, Twins


def _server(entries, base_pos, high_water):
    """A push-mode server whose queue is ``entries`` (from ``base_pos``)
    and whose clients are the keys of ``high_water``, at those marks."""
    sim = Simulator()
    oids = sorted({oid for entry in entries for oid in entry.action.reads})
    server = IncompleteWorldServer(
        sim,
        Network(sim, rtt_ms=100.0, bandwidth_bps=None),
        Host(sim, SERVER_ID),
        VersionedStore([WorldObject(oid, {"v": 0}) for oid in oids]),
        predicate=FirstBoundPredicate(max_speed=10.0, rtt_ms=100.0, omega=0.5),
    )
    server._entries.extend(entries)
    server._base_pos = base_pos
    server._next_pos = base_pos + len(entries)
    for entry in entries:
        server._writer_index.note_enqueued(entry.pos, entry.action.writes)
    for client, mark in high_water.items():
        server.clients[client] = ClientRecord(client, radius=0.0, high_water=mark)
    return server


def _fingerprint(batch):
    if batch is None:
        return None
    return [
        (ordered.pos, ordered.action.action_id, type(ordered.action) is BlindWrite,
         sorted(ordered.action.values().items()) if type(ordered.action) is BlindWrite else None)
        for ordered in batch
    ]


def _by_scan(entries, candidate_index, client_id, *, writer_index, base_pos=0, high_water=-1):
    return reference_transitive_closure(entries, candidate_index, client_id, high_water)


class Trio:
    """One queue on three servers: ``memo`` with a push cycle open,
    ``full`` walking every closure, ``scan`` on the reference scan."""

    def __init__(self, entries, base_pos, high_water):
        self.memo, self.full, self.scan = (
            _server(copy.deepcopy(entries), base_pos, high_water) for _ in range(3)
        )
        self.memo._walks = {}
        self.hits = 0

    def closure(self, monkeypatch, client, pos):
        """``client``'s closure of the entry at ``pos`` on all three;
        asserts they agree and returns the memo server's answer."""
        answers = []
        for server in (self.memo, self.full, self.scan):
            entry = server._entries[pos - server._base_pos]
            with monkeypatch.context() as patch:
                if server is self.scan:
                    patch.setattr(server_module, "transitive_closure", _by_scan)
                else:
                    patch.setattr(server_module, "held_closure", self._counted(server))
                batch, cost = server._closure_entries(client, entry)
            answers.append((
                _fingerprint(batch),
                cost,
                [sorted(queued.sent) for queued in server._entries],
                {key: record.high_water for key, record in server.clients.items()},
                server.stats,
            ))
        assert answers[0] == answers[1] == answers[2]
        return answers[0]

    def _counted(self, server):
        def counted(*args):
            closure = held_closure(*args)
            if server is self.memo and closure is not None:
                self.hits += 1
            return closure

        return counted


def _entry(pos, client, reads=(), writes=(), **fields):
    action = _SetsAction(ActionId(client, pos), reads, writes)
    return QueueEntry(pos, action, arrived_at=float(pos), valid=True, **fields)


def test_one_cycle_serves_every_kind_of_client(monkeypatch):
    """Clients with different sent sets take the closures of the same
    entries in one cycle: every writer held (the walk answers, twice), a
    writer missing, a late candidate, a span value entry with and
    without its result (a deferral); the walk passes a dropped writer."""
    base = 20
    queue = [
        _entry(20, 9, writes={"a"}),
        _entry(21, 9, writes={"a", "c"}),
        _entry(22, 9, reads={"a"}, writes={"b"}),  # W1
        _entry(23, 9, writes={"c"}),  # dropped below
        _entry(24, 9, reads={"a", "b", "c"}, writes={"x"}),  # the candidate X
        _entry(25, 9, writes={"a"}, gsn=25, span_value=True),  # result unknown
        _entry(26, 9, writes={"b"}, gsn=26, span_value=True,
               span_result=ActionResult.of({"b": {"v": 7}})),
        _entry(27, 9, writes={"a"}),
    ]
    queue[3].valid = False
    queue[4].completion = ActionResult.of({"x": {"v": 1}})
    held_all, lacks_w1, late, deferred, value, again = range(6)
    sent = {
        held_all: (20, 21, 22),
        lacks_w1: (20, 21),
        late: (20, 21, 22, 27),
        deferred: (20,),
        value: (),
        again: (21, 22),
    }
    for client, positions in sent.items():
        for pos in positions:
            queue[pos - base].sent.add(client)
    marks = {client: max(positions, default=-1) for client, positions in sent.items()}
    trio = Trio(queue, base, marks)

    first = trio.closure(monkeypatch, held_all, 24)
    assert [row[0] for row in first[0]] == [-1, 24]  # seed x, then X itself
    assert trio.hits == 1
    lacking = trio.closure(monkeypatch, lacks_w1, 24)
    assert [row[0] for row in lacking[0]] == [-1, 22, 24]
    late_x = trio.closure(monkeypatch, late, 24)
    assert late_x[0][-1][:3] == (24, ActionId(9, 24), True)  # X as its value
    assert trio.closure(monkeypatch, deferred, 25)[0] is None
    assert trio.closure(monkeypatch, value, 26)[0][-1][2]  # the span's result
    trio.closure(monkeypatch, again, 24)  # W0 unsent: the walk never met it
    assert trio.hits == 2
    # One walk per entry the cycle met as code on its first step: X.
    assert list(trio.memo._walks) == [24]
    held, seed = trio.memo._walks[24]
    assert [writer.pos for writer in held] == [22, 21] and seed == {"x"}


def test_random_queues_in_one_cycle(monkeypatch):
    """The random queues, sent marks, completions and spans of the
    closure differential, walked for many (client, candidate) pairs in
    one cycle."""
    rng = random.Random(58)
    hits = misses = 0
    for _ in range(40):
        base = rng.randrange(0, 50)
        entries, _ = _random_queue(rng, 40, 8, base_pos=base)
        clients = range(4)
        # Each client holds some of the entries below a cut of its own.
        cuts = [rng.randrange(base, base + len(entries)) for _ in clients]
        for entry in entries:
            for client in clients:
                if entry.pos < cuts[client] and rng.random() < 0.9:
                    entry.sent.add(client)
            if rng.random() < 0.4:
                entry.completion = ActionResult.of({})
            if rng.random() < 0.05:
                entry.gsn = entry.pos
                entry.span_value = rng.random() < 0.5
        marks = {
            client: max((e.pos for e in entries if client in e.sent), default=-1)
            for client in clients
        }
        trio = Trio(entries, base, marks)
        for _ in range(30):
            # Mostly an entry above the client's cut: not late for it.
            client = rng.choice(clients)
            entry = rng.choice(entries[cuts[client] - base:] if rng.random() < 0.7 else entries)
            live = trio.memo._entries[entry.pos - base]
            if live.valid is False or client in live.sent:
                continue
            before = trio.hits
            trio.closure(monkeypatch, client, entry.pos)
            hits += trio.hits > before
            misses += trio.hits == before
    assert hits > 100 and misses > 100


def test_held_closure_keeps_the_candidate_checks():
    queue = [_entry(0, 9, writes={"a"}), _entry(1, 9, reads={"a"}, writes={"b"})]
    server = _server(queue, 0, {0: -1})
    entries, index = server._entries, server._writer_index
    walk = all_sent_walk(entries, 1, writer_index=index)
    assert walk == ([entries[0]], frozenset({"b"}))
    assert held_closure(walk, entries, 1, 0) is None  # client 0 lacks pos 0
    entries[0].sent.add(0)
    assert held_closure(walk, entries, 1, 0) == ([1], frozenset({"b"}))
    with pytest.raises(ProtocolError):
        held_closure(walk, entries, 1, 0)  # already sent
    entries[0].sent.add(1)
    entries[1].valid = False
    with pytest.raises(ProtocolError):
        held_closure(walk, entries, 1, 1)  # dropped


def test_a_writer_dropped_between_cycles_is_walked_again():
    """Cycle 1 walks A's move X once, for A, who holds A's token write W
    just below it.  Before cycle 2, C is marked as holding W (by hand:
    C holds W but not B's older token write L under it) and W is
    dropped.  In cycle 2 C takes X: its walk now passes W as a no-op
    and meets L, which C lacks, so L comes along — a walk kept from
    cycle 1 would still count W as held and send X alone."""
    twins = Twins()
    twins.crash(C)
    low = twins.submit(B, SPOTS[B], writes=(TOKEN,))  # far from A and C
    w = twins.submit(A, SPOTS[A], writes=(TOKEN,))
    x = twins.submit(A, SPOTS[A], reads=(TOKEN,))
    batches, _ = twins.push()
    assert twins.delivered(batches, A) == [low, w, x]
    assert twins.shipped.server._walks is None  # dropped with its cycle
    for server in twins.servers():
        server._entries[w - server._base_pos].sent.add(C)
        server._drop(server._entries[w - server._base_pos])
    twins.reconnect(C)
    batches, _ = twins.push()
    assert twins.delivered(batches, C) == [low, x]
    twins.stats_equal()
