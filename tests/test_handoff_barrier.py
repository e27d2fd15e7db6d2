"""The client handoff barrier without an engine
(:class:`repro.core.handoff.HandoffBarrier`, docs/sharding.md): K fake
shards whose backbone messages go onto one list and whose client
messages onto another, a dead set per shard standing in for the crash
oracle, and a stub rebalancer whose fence a test opens and closes.
Each fake shard is its barrier's view, of plain attributes; no
simulator, network or shard server is built.  The last tests drive the
sender rule through a whole engine.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.adversary import AdversaryPlan
from repro.core.chassis import bound_handlers
from repro.core.handoff import HandoffBarrier
from repro.core.messages import (
    ClientHello,
    HandoffPrepare,
    HandoffReady,
    HandoffTransfer,
    HandoffWelcome,
    wire_size,
)
from repro.core.sharded import RegionPartition, ShardStats
from repro.errors import ProtocolError
from repro.harness.architectures import build_engine
from repro.harness.config import SimulationSettings
from repro.types import shard_host_id
from repro.world.geometry import Vec2

WIDTH = 300.0
MARGIN = 10.0
#: What the barrier reads of the view; the rest of it is the
#: rebalancer's (tests/test_rebalancer.py).
VIEW = {
    "shard_index", "partition", "dead", "clients", "stats", "now", "sim",
    "send", "send_peer", "position", "attach", "adopt", "detach", "breach",
    "rebalancer",
}


class Rebalancer:
    """The rebalancer as the barrier sees it: a fence a test opens and
    closes, and the handoff ends it heard."""

    def __init__(self, elastic: bool) -> None:
        self.config = object() if elastic else None
        self.open_fence = True
        self.ended: list = []

    def fenced(self) -> bool:
        return self.open_fence

    def handoff_ended(self, client) -> None:
        self.ended.append(client)


class Shard:
    """One fake shard server and its barrier's view: what the view reads
    are plain attributes a test sets, and what the barrier asks of it
    is recorded."""

    def __init__(self, cluster: "Cluster", index: int, elastic: bool) -> None:
        self.cluster = cluster
        self.shard_index = index
        self.partition = RegionPartition(WIDTH, cluster.shards)
        self.dead = cluster.dead[index]
        self.clients: dict = {}
        self.stats = ShardStats()
        self.now = 0.0
        self.sim = SimpleNamespace(obs=self)  # records the handoff stages
        self.stages: list = []
        #: Client -> committed position (absent: the server knows none).
        self.positions: dict = {}
        self.adopted: list = []
        self.detector = None
        self.breaches: list = []
        self.rebalancer = Rebalancer(elastic)
        self.unit = HandoffBarrier(self, MARGIN)

    def on_shard_handoff(self, now, client, src, dst, stage) -> None:
        self.stages.append((client, src, dst, stage))

    def send(self, client, message) -> None:
        self.cluster.downlink.append((self.shard_index, client, message))

    def send_peer(self, dst: int, message) -> None:
        self.cluster.wire.append((self.shard_index, dst, message))

    def position(self, client):
        return self.positions.get(client)

    def attach(self, client, *, radius, interests) -> None:
        assert client not in self.clients, "attached twice"
        self.clients[client] = SimpleNamespace(radius=radius, interests=interests)

    def adopt(self, client, radius, interests) -> None:
        self.attach(client, radius=radius, interests=interests)
        self.adopted.append(client)

    def detach(self, client) -> None:
        """The server's ``detach_client``: it tells the barrier."""
        self.clients.pop(client, None)
        self.unit.detached(client)

    def breach(self, src, what: str) -> None:
        if self.detector is None:
            raise ProtocolError(f"fake shard: {what} from {src}")
        self.breaches.append((src, what))


class Cluster:
    """K fake shards; ``wire`` is the backbone, ``downlink`` what the
    shards sent clients."""

    def __init__(self, shards: int = 3, elastic: bool = False) -> None:
        self.shards = shards
        self.wire: list = []
        self.downlink: list = []
        self.dead = [set() for _ in range(shards)]
        self.peers = [Shard(self, index, elastic) for index in range(shards)]

    def deliver(self) -> list:
        """Hand every backbone message to its destination's barrier."""
        delivered = []
        while self.wire:
            src, dst, message = self.wire.pop(0)
            delivered.append((src, dst, message))
            handler = bound_handlers(self.peers[dst].unit)[type(message)]
            handler(shard_host_id(src), message)
        return delivered

    def told(self, client) -> list:
        """What the shards sent ``client``, as (shard, message)."""
        return [(shard, m) for shard, to, m in self.downlink if to == client]


C = 7  # the migrating client


def migrating(cluster: Cluster, submissions=("a1", "a2")) -> Shard:
    """Client C attached on shard 0 with ``submissions`` accepted and not
    yet resolved, its committed position moved into shard 2's stripe,
    and its handoff begun."""
    old = cluster.peers[0]
    old.attach(C, radius=5.0, interests=None)
    for action_id in submissions:
        old.unit.submitted(C, action_id)
    old.positions[C] = Vec2(250.0, 10.0)
    assert old.unit.rehome(C) == 2
    return old


def test_the_fake_shard_shows_what_the_barrier_reads():
    fake = Cluster().peers[0]
    assert all(hasattr(fake, name) for name in VIEW)


def test_a_committed_position_inside_the_margin_stays_home():
    cluster = Cluster()
    shard = cluster.peers[0]
    shard.attach(C, radius=5.0, interests=None)
    assert shard.unit.rehome(C) is None  # no committed position yet
    shard.positions[C] = Vec2(105.0, 0.0)  # stripe 1, within the margin
    assert shard.unit.rehome(C) is None
    cluster.dead[0].add(1)
    shard.positions[C] = Vec2(150.0, 0.0)  # stripe 1, which is down
    assert shard.unit.rehome(C) is None
    assert shard.unit.open == {} and cluster.downlink == []


def test_a_ready_that_arrives_before_the_last_unresolved_id_waits_for_it():
    cluster = Cluster()
    old = migrating(cluster)
    assert cluster.told(C) == [(0, HandoffPrepare(2))]
    assert old.unit.rehome(C) is None  # already migrating
    assert old.stats.handoffs_out == 1
    assert not old.unit.quiescent() and not old.unit.speaks_unprompted()
    old.unit.on_ready(C, HandoffReady(C))
    assert old.unit.speaks_unprompted()  # its transfer may leave at will
    old.unit.resolved(C, "a1")
    assert cluster.wire == [] and C in old.clients
    old.unit.resolved(C, "a2")
    assert cluster.wire == [(0, 2, HandoffTransfer(C, 5.0, None, ("a1", "a2")))]
    assert C not in old.clients and old.unit.books == {}
    assert old.unit.quiescent() and not old.unit.speaks_unprompted()
    assert old.rebalancer.ended == [C]
    assert old.stages == [(C, 0, 2, "prepare"), (C, 0, 2, "transfer")]


def test_a_handoff_with_nothing_unresolved_waits_for_the_ready():
    cluster = Cluster()
    old = migrating(cluster, submissions=("a1",))
    old.unit.resolved(C, "a1")
    assert cluster.wire == [] and C in old.clients
    old.unit.on_ready(C, HandoffReady(C))
    assert [m for _, _, m in cluster.wire] == [HandoffTransfer(C, 5.0, None, ("a1",))]


def test_adoption_attaches_marks_and_welcomes_with_the_resolved_log():
    cluster = Cluster()
    old = migrating(cluster)
    old.unit.resolved(C, "a1")
    old.unit.resolved(C, "a2")
    old.unit.on_ready(C, HandoffReady(C))
    new = cluster.peers[2]
    # A static run does not re-home on adoption, wherever the client is.
    new.positions[C] = Vec2(10.0, 0.0)
    cluster.deliver()
    assert new.adopted == [C] and new.clients[C].radius == 5.0
    assert new.stats.handoffs_in == 1
    assert cluster.told(C)[-1] == (2, HandoffWelcome(2, ("a1", "a2")))
    assert new.stages == [(C, 2, 2, "adopt")]
    assert new.unit.open == {}


def test_an_adopted_client_is_re_homed_at_once_on_an_elastic_run():
    cluster = Cluster(elastic=True)
    old = migrating(cluster, submissions=())
    # The client went on past stripe 2 ... of a rebalanced stripe 1.
    cluster.peers[2].positions[C] = Vec2(150.0, 0.0)
    old.unit.on_ready(C, HandoffReady(C))
    cluster.deliver()
    assert cluster.told(C)[-2:] == [
        (2, HandoffWelcome(2, ())), (2, HandoffPrepare(1)),
    ]
    assert cluster.peers[2].unit.open == {C: [1, False]}


def test_a_dead_target_re_welcomes_the_client_onto_its_old_stream():
    cluster = Cluster()
    old = migrating(cluster, submissions=())
    cluster.dead[0].add(2)
    old.unit.on_ready(C, HandoffReady(C))
    assert cluster.wire == []  # no transfer
    assert cluster.told(C)[-1] == (0, HandoffWelcome(0, ()))
    assert C in old.clients and old.unit.quiescent()
    assert old.rebalancer.ended == [C]


def test_a_fence_parks_the_transfer_until_it_passes():
    cluster = Cluster()
    old = migrating(cluster, submissions=("a1",))
    old.rebalancer.open_fence = False
    old.unit.on_ready(C, HandoffReady(C))
    old.unit.resolved(C, "a1")
    old.unit.resolved(C, "late")  # a second attempt parks it once
    assert cluster.wire == [] and list(old.unit.parked) == [C]
    old.unit.release()  # a fence passed, another still drains
    assert cluster.wire == [] and list(old.unit.parked) == [C]
    old.rebalancer.open_fence = True
    old.unit.release()
    (transfer,) = [m for _, _, m in cluster.wire]
    assert transfer == HandoffTransfer(C, 5.0, None, ("a1", "late"))
    assert old.unit.parked == {} and old.unit.quiescent()


def test_a_detach_mid_handoff_ends_it_and_un_parks_it():
    cluster = Cluster()
    old = migrating(cluster, submissions=())
    old.rebalancer.open_fence = False
    old.unit.on_ready(C, HandoffReady(C))
    assert list(old.unit.parked) == [C]
    old.detach(C)  # evicted while parked
    assert old.unit.open == old.unit.parked == old.unit.books == {}
    assert old.rebalancer.ended == [C]
    old.rebalancer.open_fence = True
    old.unit.release()
    old.unit.on_ready(C, HandoffReady(C))  # a late ready finds no handoff
    assert cluster.wire == [] and old.unit.quiescent()
    old.detach(C)
    assert old.rebalancer.ended == [C]  # a handoff ends once


def test_a_hello_is_idempotent():
    cluster = Cluster()
    shard = cluster.peers[1]
    for _ in range(2):
        shard.unit.on_hello(3, ClientHello(3, 4.0, frozenset({"avatar"})))
    assert shard.clients[3].interests == frozenset({"avatar"})
    assert cluster.told(3) == [(1, HandoffWelcome(1, ()))] * 2
    assert shard.adopted == []  # a rejoin marks nothing sent


def test_resolutions_are_logged_only_while_attached():
    cluster = Cluster()
    shard = cluster.peers[0]
    shard.unit.resolved(C, "a0")  # not attached: no book
    assert shard.unit.books == {}
    shard.attach(C, radius=5.0, interests=None)
    shard.unit.submitted(C, "a1")
    shard.unit.resolved(C, "a0")
    assert shard.unit.books == {C: ({"a1"}, ["a0"])}


@pytest.mark.parametrize("kind", [HandoffReady, ClientHello], ids=lambda k: k.__name__)
def test_a_message_naming_another_client_is_a_breach_by_its_sender(kind):
    cluster = Cluster()
    old = migrating(cluster, submissions=())
    forged = HandoffReady(C) if kind is HandoffReady else ClientHello(C, 5.0, None)
    handler = bound_handlers(old.unit)[kind]
    with pytest.raises(ProtocolError, match=f"{kind.__name__} for {C} from 8"):
        handler(8, forged)
    old.detector = object()  # armed: flagged and dropped
    handler(8, forged)
    assert old.breaches == [(8, f"{kind.__name__} for {C}")]
    assert old.unit.open == {C: [2, False]} and cluster.wire == []
    assert cluster.told(C) == [(0, HandoffPrepare(2))] and 8 not in old.clients


# ---------------------------------------------------------------------------
# The sender rule through a whole engine: client 1 speaks for client 0,
# which is homed on shard 0
# ---------------------------------------------------------------------------
FORGERY = SimulationSettings(
    num_clients=6, num_walls=0, moves_per_client=0, shards=2, seed=7
)
ARMED = FORGERY.with_(adversary=AdversaryPlan(assignments=(("replay", (1,)),), seed=0))


def _forge(engine, message, to_shard: int) -> None:
    """Client 1 sends ``message`` to shard ``to_shard`` at t = 50 ms;
    the run goes on to t = 600 ms."""
    assert engine.home_shard(0) == engine.home_shard(1) == 0
    engine.start(stop_at=600.0)
    engine.sim.schedule(
        50.0,
        lambda: engine.network.send(
            1, shard_host_id(to_shard), message, wire_size(message)
        ),
    )
    engine.run(until=600.0)


def test_a_forged_hello_neither_attaches_its_victim_twice_nor_switches_its_stream():
    hello = ClientHello(0, 5.0, None)
    with pytest.raises(ProtocolError, match="ClientHello for 0 from 1"):
        _forge(build_engine("seve", FORGERY), hello, to_shard=1)
    engine = build_engine("seve", ARMED)
    _forge(engine, hello, to_shard=1)
    attached = [s.shard_index for s in engine.shard_servers if 0 in s.clients]
    assert attached == [0]
    assert engine.clients[0].server_id == shard_host_id(0)
    (record,) = engine.detector.records
    assert (record.detector, record.client_id) == ("breach", 1)


def test_a_forged_ready_does_not_mark_its_victims_handoff_ready():
    ready = HandoffReady(0)
    with pytest.raises(ProtocolError, match="HandoffReady for 0 from 1"):
        _forge(build_engine("seve", FORGERY), ready, to_shard=0)
    engine = build_engine("seve", ARMED)
    shard = engine.shard_servers[0]
    shard.handoff.open[0] = [1, False]  # client 0's handoff is under way
    _forge(engine, ready, to_shard=0)
    assert shard.handoff.open == {0: [1, False]} and 0 in shard.clients
    assert [record.client_id for record in engine.detector.records] == [1]
