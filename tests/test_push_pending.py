"""The per-client pending lists against the full scan, case by case.

The push cycle used to re-ask the client spatial index about every
unsent entry on every cycle; it now asks once per entry and keeps the
answer on each candidate's ``ClientRecord.pending``
(docs/performance.md, "Nominate once").  The re-query existed for the
client that *lags* — held back by the in-order delivery guard, or
disconnected — while the facts a nomination was based on change under
it.  Each test here scripts one such case on two hand-driven servers,
the shipped one and the ``FullScanServer`` oracle of
``tests/reference/distribution_reference.py`` (which keeps no lists and
tests every client against its whole window), and requires the same
batches out of the same push cycle, and the same per-client marks after
it.  The shard-level cases (``note_shard_down``, ``resume()``) run in
``tests/test_distribution_differential.py``'s crash-plan differential.

A client the guard deferred is parked on its blocker
(``ClientRecord.parked``) and not walked again until something its walk
depends on changes.  The parking tests fire each such event, on plain
and on shard servers, and require a walk in the next push cycle with,
again, the oracle's batches.

The count gates at the end pin the saving itself, on counts that repeat
exactly: one index query per serialized entry at most, and no
``_collect_push`` for a client with nothing pending.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core import server_incomplete as server_module
from repro.core.action import ABORT_RESULT, Action, ActionId, ActionResult, BlindWrite
from repro.core.first_bound import FirstBoundPredicate
from repro.core.indexes import ClientSpatialIndex
from repro.core.info_bound import InformationBound
from repro.core.messages import (
    ActionBatch,
    Completion,
    HandoffTransfer,
    SpanAbort,
    SpanSplice,
    SubmitAction,
    wire_size,
)
from repro.core.server_incomplete import IncompleteWorldServer
from repro.core.sharded import ShardServer
from repro.harness.architectures import build_engine, build_world
from repro.harness.config import SimulationSettings
from repro.harness.workload import MoveWorkload, start_run
from repro.net.backend import run_partitioned
from repro.net.host import Host
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.state.objects import WorldObject
from repro.state.versioned import VersionedStore
from repro.types import SERVER_ID, shard_host_id
from repro.world.avatar import avatar_id, avatar_object
from repro.world.geometry import Vec2
from tests.reference.distribution_reference import FullScanServer, FullScanShardServer

#: Client radius r_C.  With reach 3 (s = 10, RTT = 100, ω = 0.5) and
#: action radius 1, Equation (1) admits an action within 14 units.
RADIUS = 10.0
A, B, C, D = 0, 1, 2, 3
#: A stands next to C; B and D are far from both and from each other.
SPOTS = {A: Vec2(5, 0), B: Vec2(500, 0), C: Vec2(0, 0), D: Vec2(1000, 0)}
TOKEN = "token:0"


class Step(Action):
    """Writes the originator's avatar (plus ``writes``), reads what it
    writes plus ``reads``; occurs at ``at``."""

    def __init__(self, action_id, *, at, reads=(), writes=(), velocity=None):
        own = avatar_id(action_id.client_id)
        super().__init__(
            action_id,
            reads=frozenset({own, *reads, *writes}),
            writes=frozenset({own, *writes}),
            position=at,
            radius=1.0,
            velocity=velocity,
        )

    def compute(self, store):
        return {}


def _fingerprint(ordered):
    action = ordered.action
    if isinstance(action, BlindWrite):
        return (ordered.pos, action.action_id, sorted(action.values().items()))
    return (ordered.pos, action.action_id)


class Rig:
    """One push-mode server driven by hand: no periodic processes, the
    test calls the validation tick and the push cycle itself."""

    def __init__(self, server_cls, spots, *, culling=False, bound=None):
        self.sim = Simulator()
        self.network = Network(self.sim, rtt_ms=100.0, bandwidth_bps=None)
        objects = [
            avatar_object(client, spot)
            for client, spot in spots.items()
            if spot is not None  # no avatar object: a position-less client
        ]
        self.state = VersionedStore(objects + [WorldObject(TOKEN, {"v": 0})])
        self.server = server_cls(
            self.sim,
            self.network,
            Host(self.sim, SERVER_ID),
            self.state,
            predicate=FirstBoundPredicate(
                max_speed=10.0, rtt_ms=100.0, omega=0.5, use_velocity_culling=culling
            ),
            info_bound=bound,
            avatar_of=avatar_id,
        )
        self.inbox = []
        self._seq = 0
        for client in spots:
            self.network.register(
                client, lambda src, msg, client=client: self.inbox.append((client, msg))
            )
            self.server.attach_client(client, radius=RADIUS)

    # -- what clients do ---------------------------------------------------
    def submit(self, client, at, **sets):
        """Serialize one action; returns its queue position."""
        action = Step(ActionId(client, self._seq), at=at, **sets)
        self._seq += 1
        message = SubmitAction(action)
        self.network.send(client, SERVER_ID, message, wire_size(message))
        self.sim.run()
        return self.server._next_pos - 1

    def commit(self, pos, *, by=None, **attrs):
        """Report the stable result of ``pos`` (it writes ``attrs`` to
        its originator's avatar) from client ``by``."""
        entry = self.server._entries[pos - self.server._base_pos]
        client = entry.action.client_id
        values = {oid: {} for oid in entry.action.writes}
        values[avatar_id(client)] = attrs
        reporter = client if by is None else by
        message = Completion(
            pos, entry.action.action_id, ActionResult.of(values), reporter=reporter
        )
        self.network.send(reporter, SERVER_ID, message, wire_size(message))
        self.sim.run()
        return self.server.commit_frontier

    def wait(self, ms):
        self.sim.schedule(ms, lambda: None)
        self.sim.run()

    # -- what the server's periodic processes do -----------------------------
    def validate(self):
        self.server._validation_tick()
        self.sim.run()
        return self.server._validated_upto

    def push(self):
        """One push cycle: the batches it delivered, and every client's
        marks after it."""
        before = len(self.inbox)
        self.server._push_cycle()
        self.sim.run()
        batches = [
            (client, [_fingerprint(entry) for entry in message.entries])
            for client, message in self.inbox[before:]
            if isinstance(message, ActionBatch)
        ]
        marks = {
            client: (record.scanned_pos, record.high_water)
            for client, record in self.server.clients.items()
        }
        return batches, marks

    # -- faults --------------------------------------------------------------
    def crash(self, client):
        self.network.crash(client)

    def reconnect(self, client):
        self.network.reconnect(client)

    def detach(self, client):
        self.server.detach_client(client)

    def attach(self, client):
        self.server.attach_client(client, radius=RADIUS)

    def evict(self, client):
        self.server.evict_client(client)
        return self.server.stats.orphans_aborted


class Twins:
    """The shipped server and the full-scan oracle, told the same things
    in the same order; every answer must match."""

    def __init__(
        self, spots=SPOTS, *, servers=(IncompleteWorldServer, FullScanServer), **options
    ):
        shipped, oracle = servers
        self.shipped = Rig(shipped, spots, **options)
        self.oracle = Rig(oracle, spots, **options)
        self.stats_equal()

    def servers(self):
        return (self.shipped.server, self.oracle.server)

    def __getattr__(self, operation):
        def both(*args, **kwargs):
            got = getattr(self.shipped, operation)(*args, **kwargs)
            want = getattr(self.oracle, operation)(*args, **kwargs)
            assert got == want, operation
            return got

        return both

    def stats_equal(self):
        assert self.shipped.server.stats == self.oracle.server.stats

    def delivered(self, batches, client):
        """Queue positions one push cycle's ``batches`` carried to ``client``."""
        return [
            fingerprint[0]
            for dst, entries in batches
            for fingerprint in entries
            if dst == client and fingerprint[0] >= 0
        ]

    def hold_c_back(self):
        """Leave C deferred by the in-order delivery guard: it holds
        ``e2`` when ``e3`` arrives, whose closure reaches below that,
        to B's uncommitted token write ``e1``, which C was never sent.
        C's own ``e0`` stays at the head of the queue, uncommitted."""
        e0 = self.submit(C, SPOTS[C])
        e1 = self.submit(B, SPOTS[B], writes=(TOKEN,))
        e2 = self.submit(A, SPOTS[A])
        batches, _ = self.push()
        assert self.delivered(batches, C) == [e0, e2]
        e3 = self.submit(A, SPOTS[A], reads=(TOKEN,))
        return e0, e1, e2, e3

    def c_record(self):
        return self.shipped.server.clients[C]


# ---------------------------------------------------------------------------
# A lagging client whose committed position changes under its window
# ---------------------------------------------------------------------------
def test_lagging_client_moves_into_range_of_an_older_entry():
    twins = Twins()
    e0, e1, e2, e3 = twins.hold_c_back()
    e4 = twins.submit(D, SPOTS[D])  # out of C's range when nominated
    batches, marks = twins.push()
    assert twins.delivered(batches, C) == []
    assert marks[C][0] == e3 - 1  # held at e3
    record = twins.c_record()
    assert record.pending == [e3] and not record.stale

    # C's own move commits: it now stands next to D, far from A.
    twins.commit(e0, x=995.0, y=0.0)
    assert record.stale

    batches, marks = twins.push()
    # e3 went out of range, the older e4 came into it.
    assert twins.delivered(batches, C) == [e4]
    assert marks[C][0] == e4
    assert record.pending == [] and not record.stale
    twins.stats_equal()


def test_lagging_client_moves_out_of_range_of_what_was_pending():
    twins = Twins()
    e0, e1, e2, e3 = twins.hold_c_back()
    e4 = twins.submit(A, SPOTS[A])  # nominated for C, behind the held e3
    twins.push()
    assert twins.c_record().pending == [e3, e4]

    twins.commit(e0, x=300.0, y=300.0)  # C leaves for nowhere
    batches, marks = twins.push()
    assert twins.delivered(batches, C) == []
    assert marks[C][0] == e4  # passed both without taking either
    e5 = twins.submit(D, Vec2(305, 300))
    batches, _ = twins.push()
    assert twins.delivered(batches, C) == [e5]
    twins.stats_equal()


def test_lagging_client_whose_position_time_alone_changes_under_culling():
    """Section IV-B projects a moving effect back to the time t_C of the
    client's last committed position; t_C moves on every commit that
    declares the avatar, even when x and y stay put.  No stale mark is
    needed for it: a velocity-culled action has no query centre, so it
    was nominated to everybody and is on the list already."""
    twins = Twins(culling=True)
    e0, e1, e2, e3 = twins.hold_c_back()
    twins.wait(5_000.0)
    # An arrow loosed at C's feet, flying at 100 u/s: projected back to
    # t_C = 0 it is 500 units away; projected to t_C = now, it is here.
    e4 = twins.submit(B, SPOTS[C], velocity=Vec2(100.0, 0.0))
    batches, _ = twins.push()
    assert twins.delivered(batches, C) == []
    assert twins.c_record().pending == [e3, e4]

    twins.commit(e0, x=0.0, y=0.0)  # same place, new t_C
    assert not twins.c_record().stale
    twins.commit(e1, x=500.0, y=0.0)  # the blocker commits: e3 is free
    batches, _ = twins.push()
    assert twins.delivered(batches, C) == [e3, e4]
    twins.stats_equal()


def test_arrow_that_position_time_takes_out_of_range():
    twins = Twins(culling=True)
    e0, e1, e2, e3 = twins.hold_c_back()
    # Loosed now (t_M = t_C = 0, so it projects to where it is): wanted.
    e4 = twins.submit(B, SPOTS[C], velocity=Vec2(100.0, 0.0))
    twins.push()
    twins.wait(5_000.0)
    twins.commit(e0, x=0.0, y=0.0)  # t_C = 5 s: the arrow projects 500 u back
    twins.commit(e1, x=500.0, y=0.0)
    batches, marks = twins.push()
    assert twins.delivered(batches, C) == [e3]
    assert marks[C][0] == e4
    twins.stats_equal()


# ---------------------------------------------------------------------------
# Clients that were away
# ---------------------------------------------------------------------------
def test_client_whose_handler_is_parked_for_several_cycles_then_reconnects():
    twins = Twins()
    e0 = twins.submit(C, SPOTS[C])
    twins.push()
    twins.crash(C)
    near = [twins.submit(A, SPOTS[A])]
    far = [twins.submit(D, SPOTS[D])]
    for _ in range(3):
        batches, marks = twins.push()
        assert twins.delivered(batches, C) == []
        assert marks[C][0] == e0  # a parked client's window only grows
        near.append(twins.submit(A, SPOTS[A]))
        far.append(twins.submit(D, SPOTS[D]))
    # Its move commits while it is away (A evaluated it too).
    twins.commit(e0, by=A, x=1003.0, y=0.0)
    twins.reconnect(C)
    batches, marks = twins.push()
    assert twins.delivered(batches, C) == far
    assert marks[C][0] == far[-1]
    twins.stats_equal()


def test_parked_client_that_did_not_move_gets_its_list():
    twins = Twins()
    twins.crash(C)
    near = [twins.submit(A, SPOTS[A]) for _ in range(3)]
    twins.submit(D, SPOTS[D])
    twins.push()
    near.append(twins.submit(A, SPOTS[A]))
    twins.push()
    assert twins.c_record().pending == near
    twins.reconnect(C)
    batches, _ = twins.push()
    assert twins.delivered(batches, C) == near
    twins.stats_equal()


def test_stale_client_whose_whole_window_committed_while_it_was_away():
    twins = Twins()
    twins.crash(C)
    e0 = twins.submit(A, SPOTS[A])
    twins.push()  # nominated for the parked C
    twins.commit(e0, x=5.0, y=1.0)
    mine = twins.submit(D, SPOTS[D])
    twins.push()
    # Someone moves C (a region sync would) while nothing it was
    # nominated for is left in the queue: nothing to re-nominate from.
    for rig in (twins.shipped, twins.oracle):
        rig.state.merge({avatar_id(C): {"x": 40.0, "y": 40.0}}, commit_index=-1)
        rig.server._refresh_indexed_positions({avatar_id(C): {}})
    assert twins.c_record().stale
    twins.commit(mine, x=1000.0, y=1.0)
    # ... and one more entry comes and goes between two push cycles,
    # so the commit frontier is past everything ever nominated.
    unseen = twins.submit(D, SPOTS[D])
    twins.commit(unseen, x=1000.0, y=2.0)
    assert twins.shipped.server.uncommitted_count == 0
    twins.reconnect(C)
    batches, marks = twins.push()
    assert twins.delivered(batches, C) == []
    assert marks[C][0] == unseen and not twins.c_record().stale
    twins.stats_equal()


def test_detach_and_reattach_starts_a_fresh_window():
    twins = Twins()
    e0, e1, e2, e3 = twins.hold_c_back()
    twins.push()
    assert twins.c_record().pending == [e3]
    twins.detach(C)
    e4 = twins.submit(A, SPOTS[A])  # validated, not yet nominated
    twins.attach(C)
    record = twins.c_record()
    assert record.pending == [] and record.scanned_pos == e4
    e5 = twins.submit(A, SPOTS[A])
    batches, marks = twins.push()
    # The rejoiner's window opens after e4; e5's closure carries what
    # it needs of the older entries.
    assert e5 in twins.delivered(batches, C)
    assert marks[C][0] == e5
    twins.stats_equal()


def test_client_attached_while_unvalidated_entries_exist():
    twins = Twins(bound=InformationBound(45.0))
    e0 = twins.submit(A, SPOTS[A])
    assert twins.validate() == e0
    e1 = twins.submit(A, SPOTS[A])  # serialized, not validated
    twins.detach(C)
    twins.attach(C)
    assert twins.c_record().scanned_pos == e1 > twins.shipped.server._validated_upto
    batches, marks = twins.push()
    assert twins.delivered(batches, C) == []
    assert marks[C][0] == e1
    assert twins.validate() == e1
    e2 = twins.submit(A, SPOTS[A])
    twins.validate()
    batches, marks = twins.push()
    # e1 predates the attach: only the closure of e2 may carry it.
    assert twins.delivered(batches, C)[-1] == e2
    assert twins.c_record().pending == []
    twins.stats_equal()


def test_replacement_server_resumed_past_position_zero():
    """``ShardServer.resume()`` moves a freshly built server's stream
    position past everything its dead predecessor may have issued;
    nomination starts from the queue's base, not from position 0."""
    twins = Twins()
    for rig in (twins.shipped, twins.oracle):
        server = rig.server
        server._next_pos = server._base_pos = 44
        server._validated_upto = 43
    for client in SPOTS:  # its clients arrive after the restart
        twins.detach(client)
        twins.attach(client)
    first = twins.submit(A, SPOTS[A])
    assert first == 44
    twins.submit(D, SPOTS[D])
    batches, marks = twins.push()
    assert twins.delivered(batches, C) == [44]
    assert marks[C][0] == 45
    twins.stats_equal()


# ---------------------------------------------------------------------------
# A blocked client waits for its blocker
# ---------------------------------------------------------------------------
@pytest.fixture
def walks(monkeypatch):
    """``walks(twins)``: the closure walks the shipped server of ``twins``
    made since the last call.  (The oracle walks every closure it
    counts: its push cycle never parks anyone.)"""
    counts = Counter()
    walk = server_module.transitive_closure

    def counted(entries, candidate_index, client_id, *, writer_index, base_pos=0):
        counts[writer_index] += 1
        return walk(
            entries, candidate_index, client_id,
            writer_index=writer_index, base_pos=base_pos,
        )

    monkeypatch.setattr(server_module, "transitive_closure", counted)

    def since_last_call(twins):
        index = twins.shipped.server._writer_index
        made, counts[index] = counts[index], 0
        return made

    return since_last_call


class HookLog:
    """An observer that logs the push path's per-closure and per-cycle
    hooks (the scan hook differs by design: the oracle nominates no one)."""

    def __init__(self):
        self.calls = []

    def on_push_closure(self, cost):
        self.calls.append(("closure", cost))

    def on_push_build(self, *args):
        self.calls.append(("build", args))

    def on_push_scan(self, *args):
        pass


def park_c(twins, walks):
    """Hold C back (``Twins.hold_c_back``) and let the deferral park it
    on the blocker ``e1``: the push cycle after that walks nothing."""
    held = twins.hold_c_back()
    twins.push()
    assert twins.c_record().parked is not None
    walks(twins)
    batches, _ = twins.push()
    assert walks(twins) == 0 and twins.delivered(batches, C) == []
    twins.stats_equal()
    return held


def test_a_parked_client_is_charged_its_deferral_but_not_walked(walks):
    twins = Twins()
    logs = []
    for server in twins.servers():
        server._obs = HookLog()
        logs.append(server._obs.calls)
    park_c(twins, walks)
    server = twins.shipped.server
    # A's own e3 reaches back to e1 as well.
    assert [c for c, record in server.clients.items() if record.parked] == [A, C]
    deferred = server.stats.closures_deferred
    for _ in range(3):
        batches, _ = twins.push()
        assert walks(twins) == 0
    assert server.stats.closures_deferred == deferred + 2 * 3
    twins.stats_equal()
    assert logs[0] == logs[1] and ("closure", 0.04) in logs[0]


def test_parked_client_walks_once_its_blocker_commits(walks):
    twins = Twins()
    e0, e1, e2, e3 = park_c(twins, walks)
    twins.commit(e0, x=0.0, y=0.0)  # (a commit that moves C unparks too)
    twins.push()
    walks(twins)
    twins.push()
    assert walks(twins) == 0  # parked on e1 again
    twins.commit(e1, x=500.0, y=0.0)
    batches, _ = twins.push()
    assert walks(twins) > 0
    assert twins.delivered(batches, C) == [e3]
    twins.stats_equal()


def test_parked_client_walks_after_a_commit_writes_its_avatar(walks):
    twins = Twins()
    e0, *_ = park_c(twins, walks)
    twins.commit(e0, x=0.0, y=0.0)  # in place: only t_C moves
    assert not twins.c_record().stale
    batches, _ = twins.push()
    assert walks(twins) > 0
    assert twins.delivered(batches, C) == []
    twins.stats_equal()


def test_parked_client_walks_after_a_commit_moves_only_its_position_time():
    """An own move that aborted declared the avatar but wrote nothing:
    only t_C moves, and with it where a culled arrow projects."""
    twins = Twins(culling=True)
    e0 = twins.submit(C, SPOTS[C])
    twins.submit(B, SPOTS[B], writes=(TOKEN,))
    twins.submit(A, SPOTS[A])
    twins.push()
    # Loosed at C's feet, reading the token: wanted, and deferred.
    e3 = twins.submit(A, SPOTS[C], reads=(TOKEN,), velocity=Vec2(20.0, 0.0))
    twins.push()
    assert twins.c_record().parked is not None
    twins.wait(5_000.0)
    for rig in (twins.shipped, twins.oracle):
        action_id = rig.server._entries[0].action.action_id
        message = Completion(e0, action_id, ABORT_RESULT, reporter=C)
        rig.network.send(C, SERVER_ID, message, wire_size(message))
        rig.sim.run()
    batches, marks = twins.push()
    # Projected to t_C, 5 s on, the arrow is 100 units off: the walk
    # passes it without a closure, where a parked C would still wait.
    assert twins.delivered(batches, C) == [] and marks[C][0] == e3
    assert twins.c_record().parked is None
    twins.stats_equal()


def test_parked_client_walks_after_a_region_sync_moves_it(walks):
    twins = Twins()
    park_c(twins, walks)
    for rig in (twins.shipped, twins.oracle):
        rig.state.merge({avatar_id(C): {"x": 2.0, "y": 0.0}}, commit_index=-1)
        rig.server._refresh_indexed_positions({avatar_id(C): {}})
    record = twins.c_record()
    assert record.stale
    twins.push()
    assert walks(twins) > 0
    # Parked again, stale: the skipped cycle leaves it as the walk would.
    batches, _ = twins.push()
    assert walks(twins) == 0 and twins.delivered(batches, C) == []
    assert record.stale and record.pending == [] and record.parked is not None
    twins.stats_equal()


def test_parked_client_walks_after_a_detach(walks):
    twins = Twins()
    park_c(twins, walks)
    twins.detach(B)  # scrubs B from every sent mark
    twins.push()
    assert walks(twins) > 0
    twins.stats_equal()


def test_parked_client_walks_after_an_orphan_abort(walks):
    E = 4
    twins = Twins({**SPOTS, E: Vec2(2_000, 2_000)})
    park_c(twins, walks)
    e4 = twins.submit(E, Vec2(2_000, 2_000))  # wanted by nobody else
    twins.crash(E)
    twins.detach(E)
    twins.push()
    walks(twins)
    twins.push()
    assert walks(twins) == 0
    for server in twins.servers():
        server._abort_orphans()  # e4's only holder is gone
        assert server._entries[e4 - server._base_pos].valid is False
    twins.push()
    assert walks(twins) > 0
    twins.stats_equal()


SHARDS = (ShardServer, FullScanShardServer)


def _splice_far_span(twins):
    """Splice a spanning action that shard 1 owns into both servers."""
    action = Step(ActionId(B, 1_000), at=Vec2(2_000, 2_000))
    for server in twins.servers():
        server._on_span_splice(shard_host_id(1), SpanSplice(0, 1, (0, 1), action))
    twins.push()
    return action


def test_parked_client_walks_after_a_span_orphan_abort(walks):
    twins = Twins(servers=SHARDS)
    park_c(twins, walks)
    _splice_far_span(twins)
    for server in twins.servers():
        server.note_shard_down(1)  # the owner died before the result
    twins.push()
    assert walks(twins) > 0
    twins.stats_equal()


def test_parked_client_walks_after_a_span_abort(walks):
    twins = Twins(servers=SHARDS)
    park_c(twins, walks)
    action = _splice_far_span(twins)
    for server in twins.servers():
        server._on_span_abort(shard_host_id(1), SpanAbort(0, action.action_id))
    twins.push()
    assert walks(twins) > 0
    twins.stats_equal()


def test_parked_client_walks_after_a_handoff_adoption(walks):
    E = 4
    twins = Twins({**SPOTS, E: Vec2(3, 3)}, servers=SHARDS)
    twins.detach(E)  # E lives on another shard for now
    park_c(twins, walks)
    for server in twins.servers():
        server._on_handoff_transfer(shard_host_id(1), HandoffTransfer(E, RADIUS))
    twins.push()
    assert walks(twins) > 0
    twins.stats_equal()


# ---------------------------------------------------------------------------
# Entries and clients the index cannot place
# ---------------------------------------------------------------------------
def test_entry_aborted_as_an_orphan_while_pending():
    E = 4
    twins = Twins({**SPOTS, E: Vec2(3, 3)})
    e0, e1, e2, e3 = twins.hold_c_back()
    e4 = twins.submit(E, Vec2(3, 3))  # next to C, behind the held e3
    twins.crash(A)  # A and E are gone before e4 reaches anyone ...
    twins.crash(E)
    twins.push()
    assert twins.c_record().pending == [e3, e4]
    assert twins.evict(E) == 1  # ... so evicting E orphans e4
    assert twins.shipped.server._entries[e4 - twins.shipped.server._base_pos].valid is False
    twins.commit(e0, x=0.0, y=0.0)
    twins.commit(e1, x=500.0, y=0.0)
    batches, marks = twins.push()
    assert twins.delivered(batches, C) == [e3]
    assert marks[C][0] == e4
    twins.stats_equal()


def test_positionless_client_and_culled_action_are_everyones_candidates():
    P = 5
    twins = Twins({**SPOTS, P: None}, culling=True)
    assert twins.shipped.server._client_index.positionless_count == 1
    here = twins.submit(A, SPOTS[A])
    there = twins.submit(D, SPOTS[D])
    nowhere = twins.submit(B, None)  # no position: affects everyone
    # Flying away from everyone: nobody with a position wants it.
    arrow = twins.submit(B, Vec2(2_000, 2_000), velocity=Vec2(50.0, 50.0))
    batches, _ = twins.push()
    assert twins.delivered(batches, P) == [here, there, nowhere, arrow]
    assert twins.delivered(batches, C) == [here, nowhere]
    assert twins.delivered(batches, D) == [there, nowhere]
    # P's avatar appears (a region sync, a late spawn): it is placed.
    for rig in (twins.shipped, twins.oracle):
        rig.state.merge({avatar_id(P): {"x": 1000.0, "y": 3.0}}, commit_index=-1)
        rig.server._refresh_indexed_positions({avatar_id(P): {}})
    assert twins.shipped.server._client_index.positionless_count == 0
    here2 = twins.submit(A, SPOTS[A])
    there2 = twins.submit(D, SPOTS[D])
    batches, _ = twins.push()
    assert twins.delivered(batches, P) == [there2]
    assert here2 not in twins.delivered(batches, P)
    twins.stats_equal()


# ---------------------------------------------------------------------------
# Everything at once, seeded
# ---------------------------------------------------------------------------
#: Seeds whose script leaves some client stale at a push cycle (most do;
#: 1 and 5 happen not to); odd seeds run under velocity culling.
SCRIPT_SEEDS = [0, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13]


@pytest.mark.parametrize("seed", SCRIPT_SEEDS)
def test_random_scripts_match_the_full_scan(seed):
    """Random interleavings of submissions (some reading the shared
    token, so closures reach back and the guard defers), in-order
    commits that move the originator, parked handlers, detach/attach
    and evictions, with a push cycle after every few steps."""
    rng = random.Random(seed)
    clients = list(range(8))
    spots = {
        client: Vec2(rng.uniform(0, 60), rng.uniform(0, 60)) for client in clients
    }
    twins = Twins(spots, culling=seed % 2 == 1)
    where = dict(spots)
    parked, detached = set(), set()
    stale_walks = deferred = 0
    for step in range(160):
        roll = rng.random()
        server = twins.shipped.server
        up = [c for c in clients if c not in parked and c not in detached]
        if roll < 0.45 and up:
            client = rng.choice(up)
            sets = {}
            if rng.random() < 0.4:
                sets["reads"] = (TOKEN,)
            elif rng.random() < 0.3:
                sets["writes"] = (TOKEN,)
            if rng.random() < 0.15:
                sets["velocity"] = Vec2(rng.uniform(-40, 40), rng.uniform(-40, 40))
            twins.submit(client, where[client], **sets)
        elif roll < 0.65 and server.uncommitted_count:
            head = server._entries[0]
            reporters = [c for c in sorted(head.sent) if c in up]
            if head.valid is not False and reporters:
                owner = head.action.client_id
                where[owner] = Vec2(rng.uniform(0, 60), rng.uniform(0, 60))
                twins.commit(
                    head.pos, by=reporters[0], x=where[owner].x, y=where[owner].y
                )
        elif roll < 0.70 and len(up) > 3:
            client = rng.choice(up)
            twins.crash(client)
            parked.add(client)
        elif roll < 0.75 and parked:
            client = rng.choice(sorted(parked))
            twins.reconnect(client)
            parked.discard(client)
        elif roll < 0.78 and len(up) > 3:
            client = rng.choice(up)
            twins.detach(client)
            detached.add(client)
        elif roll < 0.82 and detached:
            client = rng.choice(sorted(detached))
            twins.attach(client)
            detached.discard(client)
        elif roll < 0.84 and parked:
            client = rng.choice(sorted(parked))
            twins.evict(client)
            parked.discard(client)
            detached.add(client)
            twins.reconnect(client)
        else:
            stale_walks += sum(record.stale for record in server.clients.values())
            twins.wait(50.0)
            twins.push()
            deferred = server.stats.closures_deferred
        twins.stats_equal()
    assert twins.shipped.server.stats.entries_distributed > 50
    assert deferred > 0
    assert stale_walks > 0


# ---------------------------------------------------------------------------
# Count gates: a regression to re-querying fails here, not in a benchmark
# ---------------------------------------------------------------------------
#: Smoke-scale twins of the perf benchmark's ``crowd_k1`` / ``sprawl_k4``.
CROWD = SimulationSettings(num_clients=16, num_walls=2_000, moves_per_client=4, seed=5)
SPRAWL_K4 = SimulationSettings(
    num_clients=48,
    num_walls=500,
    moves_per_client=3,
    world_width=600.0,
    spawn="uniform",
    shards=4,
    seed=5,
)


@pytest.mark.parametrize("settings", [CROWD, SPRAWL_K4], ids=["crowd", "sprawl_k4"])
def test_one_index_query_per_entry_and_no_collect_without_pending(
    settings, monkeypatch
):
    counts = {"candidates": 0, "collects": 0, "idle_collects": 0}
    real_candidates = ClientSpatialIndex.candidates
    real_collect = IncompleteWorldServer._collect_push

    def counted_candidates(index, center, radius):
        counts["candidates"] += 1
        return real_candidates(index, center, radius)

    def counted_collect(server, record):
        counts["collects"] += 1
        counts["idle_collects"] += not (record.pending or record.stale)
        return real_collect(server, record)

    monkeypatch.setattr(ClientSpatialIndex, "candidates", counted_candidates)
    monkeypatch.setattr(IncompleteWorldServer, "_collect_push", counted_collect)
    if settings.shards > 1:
        engine, _ = run_partitioned("seve", settings, parallel=False)
        servers = engine.shard_servers
    else:
        world = build_world(settings)
        engine = build_engine("seve", settings, world)
        start_run(engine, MoveWorkload(engine, world, settings), settings)
        engine.run(until=settings.submit_horizon_ms)
        engine.run_to_quiescence(max_extra_ms=settings.drain_ms)
        servers = [engine.server]
    serialized = sum(server.stats.actions_serialized for server in servers)
    cycles = sum(server.stats.push_cycles for server in servers)
    assert serialized >= settings.num_clients * settings.moves_per_client
    assert 0 < counts["candidates"] <= serialized
    assert counts["idle_collects"] == 0
    # Fewer collections than (cycle, client) pairs: the idle ones were
    # skipped (in the sprawl most clients are idle in most cycles).
    assert 0 < counts["collects"] < cycles * settings.num_clients / settings.shards
