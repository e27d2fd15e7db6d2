"""The elastic rebalancer without an engine (:class:`repro.core.elastic.Rebalancer`,
docs/elasticity.md): K fake shards exchanging control messages through a
list, a hand-stepped clock, and a dead set per shard standing in for the
crash oracle.  Each fake shard is its unit's view, of plain attributes;
no simulator, network or shard server is built.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core.action import ActionId
from repro.core.chassis import bound_handlers
from repro.core.elastic import ElasticConfig, Rebalancer
from repro.core.messages import (
    DrainDone,
    LoadReport,
    PartitionCommit,
    PartitionUpdate,
    RegionSync,
)
from repro.core.sharded import RegionPartition, ShardStats, ShardView
from repro.state.objects import WorldObject
from repro.state.versioned import VersionedStore
from tests.test_handoff_barrier import VIEW as BARRIER_VIEW
from tests.test_sharded import SPAN_VIEW

WIDTH = 300.0
CONFIG = ElasticConfig(interval_ms=100.0, threshold=1.5, hysteresis=2)
HOT = [30.0, 0.0, 0.0]  # imbalance 3.0
EVEN = [10.0, 10.0, 10.0]


#: What the rebalancer reads of the view; the rest of it is the handoff
#: barrier's (tests/test_handoff_barrier.py).
VIEW = {
    "shard_index", "partition", "dead", "is_holder", "next_pos", "base_pos",
    "store", "clients", "cpu_ms", "serialized", "stats", "now",
    "send_peer", "broadcast", "to_holder", "handoff", "refresh",
}


class Shard:
    """One fake shard server and its unit's view: what the view reads
    are plain attributes a test sets, and what the unit asks of it is
    recorded.  It stands in for its handoff barrier too."""

    def __init__(self, cluster: "Cluster", index: int, config) -> None:
        self.cluster = cluster
        self.shard_index = index
        self.partition = RegionPartition(WIDTH, cluster.shards)
        self.dead = cluster.dead[index]
        self.store = VersionedStore(
            [WorldObject(oid, {"x": x}) for oid, x in cluster.objects.items()]
        )
        self.clients: dict = {}
        self.stats = ShardStats()
        self.next_pos = self.base_pos = 0
        self.cpu_ms, self.serialized = 0.0, 0
        #: Client -> the shard a re-home hands it to (absent: it stays).
        self.homes: dict = {}
        self.releases = 0
        self.refreshed: list = []
        self.handoff = self
        self.unit = Rebalancer(config, self, span_slack=5.0)

    @property
    def is_holder(self) -> bool:
        return self.cluster.holder == self.shard_index

    @property
    def now(self) -> float:
        return self.cluster.now

    def send_peer(self, dst: int, message) -> None:
        self.cluster.wire.append((self.shard_index, dst, message))

    def broadcast(self, message) -> None:
        for dst in range(self.cluster.shards):
            if dst != self.shard_index and dst not in self.dead:
                self.send_peer(dst, message)

    def to_holder(self, message) -> None:
        if self.is_holder:
            bound_handlers(self.unit)[type(message)](None, message)
        else:
            self.send_peer(self.cluster.holder, message)

    def rehome(self, client):
        return self.homes.pop(client, None)

    def release(self) -> None:
        self.releases += 1

    def refresh(self, values) -> None:
        self.refreshed.append(values)


class Cluster:
    """K shards wired to one in-memory wire; shard ``holder`` holds the
    lease, so it runs the controller."""

    def __init__(self, shards: int = 3, config=CONFIG, objects=None) -> None:
        self.shards = shards
        self.now = 0.0
        self.holder = 0
        self.wire: list = []
        self.dead = [set() for _ in range(shards)]
        self.objects = objects or {}
        self.peers = [Shard(self, index, config) for index in range(shards)]

    @property
    def units(self) -> list:
        return [peer.unit for peer in self.peers]

    def crash(self, shard: int) -> None:
        """The crash oracle: every survivor learns ``shard`` is down."""
        for peer in range(self.shards):
            if peer != shard:
                self.dead[peer].add(shard)

    def deliver(self, *, silent=()) -> list:
        """Hand every message on the wire (and those it causes) to its
        destination; messages to ``silent`` shards are lost."""
        delivered = []
        while self.wire:
            src, dst, message = self.wire.pop(0)
            if dst in silent:
                continue
            delivered.append((src, dst, message))
            bound_handlers(self.peers[dst].unit)[type(message)](src, message)
        return delivered

    def load_round(self, cpu_deltas) -> list:
        """Every shard burns its cpu delta and ticks; deliver the lot."""
        self.now += 100.0
        for peer, delta in zip(self.peers, cpu_deltas):
            peer.cpu_ms += delta
            peer.unit.tick()
        return self.deliver()


def kinds(delivered) -> list:
    return [(src, dst, type(message).__name__) for src, dst, message in delivered]


def test_a_rebalance_fires_after_the_hysteresis_streak_and_one_is_in_flight_at_a_time():
    cluster = Cluster()
    controller = cluster.units[0]
    cluster.peers[2].next_pos = 5  # shard 2's fence lies ahead of its frontier
    cluster.load_round(HOT)
    assert (controller.streak, controller.rebalance_log) == (1, [])
    cluster.load_round(EVEN)  # a balanced round resets the streak
    assert controller.streak == 0
    assert cluster.load_round(HOT) and controller.rebalance_log == []
    delivered = cluster.load_round(HOT)
    assert [k for k in kinds(delivered) if k[2] != "LoadReport"] == [
        (0, 1, "PartitionUpdate"), (0, 2, "PartitionUpdate"), (1, 0, "DrainDone"),
    ]
    (event,) = controller.rebalance_log
    assert event["version"] == 1 and event["at_ms"] == 400.0
    assert event["imbalance"] == 3.0
    assert [peer.partition.version for peer in cluster.peers] == [1, 1, 1]
    assert controller.pending_version == 1 and controller.drain_done == {0, 1}
    # Still over the threshold, but version 1 has not committed.
    for _ in range(3):
        delivered = cluster.load_round(HOT)
        assert {type(m) for _, _, m in delivered} == {LoadReport}
    assert len(controller.rebalance_log) == 1 and controller.pending_version == 1
    assert not controller.quiescent()


def test_the_version_commits_only_after_every_live_shards_drain_done():
    cluster = Cluster()
    cluster.peers[2].next_pos = 5
    for cpu in (HOT, HOT):
        cluster.load_round(cpu)
    assert cluster.wire == [] and all(unit.epochs for unit in cluster.units)
    # The last shard's frontier passes its fence: the commit follows.
    cluster.peers[2].base_pos = 5
    cluster.units[2].fence()
    delivered = cluster.deliver()
    assert kinds(delivered) == [
        (2, 0, "DrainDone"), (0, 1, "PartitionCommit"), (0, 2, "PartitionCommit"),
    ]
    assert [unit.epochs for unit in cluster.units] == [[], [], []]
    assert cluster.units[0].pending_version is None
    assert cluster.peers[0].stats.rebalances == 1
    assert all(unit.quiescent() for unit in cluster.units)


def test_a_shard_dying_mid_drain_shrinks_the_quorum():
    cluster = Cluster()
    cluster.peers[2].next_pos = 5
    for cpu in (HOT, HOT):
        cluster.load_round(cpu)
    cluster.crash(2)
    cluster.units[1].shard_down()  # not the controller: nothing to re-check
    assert cluster.wire == []
    cluster.units[0].shard_down()
    assert kinds(cluster.deliver()) == [(0, 1, "PartitionCommit")]
    assert cluster.units[0].epochs == cluster.units[1].epochs == []
    assert cluster.units[0].quiescent() and cluster.units[1].quiescent()


def test_a_controller_that_takes_over_when_the_lease_moves_adopts_the_open_version():
    cluster = Cluster()
    cluster.peers[2].next_pos = 5
    for cpu in (HOT, HOT):
        cluster.load_round(cpu)
    # The controller dies with DrainDones {0, 1} collected; shard 1 wins
    # the lease.  Every survivor adopts, then re-drives its DrainDones.
    cluster.crash(0)
    cluster.holder = 1
    for unit in cluster.units[1:]:
        unit.adopt()
    assert cluster.units[1].pending_version == 1
    assert cluster.units[1].drain_done == set()
    assert cluster.units[2].pending_version is None  # not the holder
    for unit in cluster.units[1:]:
        unit.redrive()
    assert cluster.units[1].drain_done == {1} and cluster.wire == []
    cluster.peers[2].base_pos = 5
    cluster.units[2].fence()
    assert kinds(cluster.deliver()) == [(2, 1, "DrainDone"), (1, 2, "PartitionCommit")]
    assert cluster.units[1].epochs == cluster.units[2].epochs == []
    assert cluster.peers[1].stats.rebalances == 1


def test_a_restarted_holder_adopts_the_version_its_drain_dones_name():
    cluster = Cluster()
    for peer in cluster.peers[1:]:
        peer.next_pos = 5
    for cpu in (HOT, HOT):
        cluster.load_round(cpu)
    for peer in cluster.peers[1:]:
        peer.base_pos = 5
        peer.unit.fence()
    cluster.deliver(silent={0})  # the DrainDones die with shard 0
    assert cluster.units[0].drain_done == {0}
    # Shard 0 restarts still holding the lease (a fresh unit); the
    # survivors re-drive what it never answered.
    cluster.peers[0] = Shard(cluster, 0, CONFIG)
    reborn = cluster.units[0]
    assert reborn.pending_version is None
    for unit in cluster.units[1:]:
        unit.redrive()
    assert kinds(cluster.deliver()) == [(1, 0, "DrainDone"), (2, 0, "DrainDone")]
    assert reborn.pending_version == 1 and reborn.drain_done == {1, 2}
    # A DrainDone of another version does not count toward it.
    reborn.on_drain_done(None, DrainDone(1, 7))
    assert reborn.pending_version == 1 and reborn.drain_done == {1, 2}


def test_a_restarted_shard_is_caught_up_to_the_committed_version():
    cluster = Cluster()
    for unit in cluster.units:
        unit.catch_up(2)  # version 0 everywhere: nothing to catch up
    assert cluster.wire == []
    for cpu in (HOT, HOT):
        cluster.load_round(cpu)
    cuts = tuple(cluster.peers[0].partition.boundaries)
    cluster.units[0].catch_up(2)
    assert [m for _, _, m in cluster.wire] == [
        PartitionUpdate(1, cuts), PartitionCommit(1),
    ]


def test_bulk_handoffs_hold_the_drain_and_parked_transfers_wait_for_the_fence():
    cluster = Cluster()
    loser = cluster.peers[1]
    loser.clients.update({4: None, 5: None})
    loser.homes[5] = 2  # the new cuts re-home client 5 only
    loser.next_pos = 3
    for cpu in (HOT, HOT):
        cluster.load_round(cpu)
    (epoch,) = loser.unit.epochs
    assert epoch.bulk == {5} and loser.stats.bulk_handoffs == 1
    assert (epoch.fence, epoch.synced) == (3, False)
    assert not loser.unit.fenced() and loser.releases == 0
    loser.unit.fence()  # still short of the fence: transfers stay parked
    assert loser.releases == 0
    loser.base_pos = 3
    loser.unit.fence()
    assert loser.unit.fenced() and loser.releases == 1  # the barrier sends
    assert cluster.wire == []  # the transfer has not left: no DrainDone
    loser.unit.handoff_ended(4)  # not a bulk handoff of this epoch
    assert cluster.wire == []
    loser.unit.handoff_ended(5)
    assert kinds(cluster.deliver()) == [
        (1, 0, "DrainDone"), (0, 1, "PartitionCommit"), (0, 2, "PartitionCommit"),
    ]


def test_the_losing_shard_syncs_the_ceded_interval_at_its_fence():
    objects = {"a:0": 80.0, "b:0": 20.0, "c:0": 90.0}
    cluster = Cluster(shards=2, objects=objects)
    loser = cluster.peers[0]
    loser.store.merge({"a:0": {"x": 80.0}, "b:0": {"x": 20.0}})  # c:0 stays seeded
    loser.unit.stamps["a:0"] = (4, 1)
    loser.unit.on_partition_update(None, PartitionUpdate(1, (50.0,)))
    sync = RegionSync(1, 50.0, 150.0, (("a:0", 4, 1, (("x", 80.0),)),))
    assert cluster.wire == [(0, 1, sync)]


def test_a_region_sync_never_regresses_a_newer_stamp():
    cluster = Cluster(shards=2, objects={"a:0": 120.0})
    gainer = cluster.peers[1]
    gainer.unit.stamps["a:0"] = (5, 0)

    def sync(gsn, local, x):
        gainer.unit.on_region_sync(
            0, RegionSync(1, 100.0, 150.0, (("a:0", gsn, local, (("x", x),)),))
        )

    sync(3, 1, 130.0)  # an older span's value, even with a local write
    sync(5, 0, 131.0)  # the same stamp is not newer
    assert gainer.store.get("a:0")["x"] == 120.0 and gainer.refreshed == []
    sync(5, 1, 132.0)  # a local write after the gainer's last span
    assert gainer.store.get("a:0")["x"] == 132.0
    assert gainer.unit.stamps["a:0"] == (5, 1, None, ())  # no writer vouches
    assert gainer.refreshed == [{"a:0": {"x": 132.0}}]
    sync(5, 1, 133.0)
    assert gainer.store.get("a:0")["x"] == 132.0


def test_resolved_entries_stamp_their_writes():
    unit = Cluster().units[0]

    def entry(gsn, span, written, valid=True, seq=0):
        completion = SimpleNamespace(written_ids=lambda: set(written))
        return SimpleNamespace(
            gsn=gsn if span else -1, valid=valid, completion=completion,
            action=SimpleNamespace(action_id=ActionId(3, seq)),
            span_involved=(0, 2) if span else (),
        )  # fmt: skip

    unit.note_resolved(entry(7, True, ["a:0", "b:0"]))
    unit.note_resolved(entry(None, False, ["a:0"], seq=1))
    unit.note_resolved(entry(9, True, ["c:0"], valid=False))  # dropped
    assert unit.stamps == {
        "a:0": (7, 1, ActionId(3, 1), ()),
        "b:0": (7, 0, ActionId(3, 0), (0, 2)),
    }
    unit.note_resolved(entry(8, True, ["a:0"], seq=2))
    assert unit.stamps["a:0"] == (8, 0, ActionId(3, 2), (0, 2))
    # A dirty mark keeps the region-sync order and drops the writer.
    unit.mark_dirty("a:0")
    unit.mark_dirty("d:0")
    assert unit.stamps["a:0"] == (8, 0, None, ())
    assert unit.stamps["d:0"] == (-1, 0, None, ())


def test_an_inert_unit_starts_no_timer_and_stays_quiescent():
    cluster = Cluster(config=None)
    assert [unit.start() for unit in cluster.units] == [[], [], []]
    armed = Cluster().units[0]
    assert armed.start() == [(100.0, armed.tick)]
    for unit in cluster.units:
        unit.adopt()
        unit.redrive()
        unit.shard_down()
        unit.catch_up(1)
        unit.handoff_ended(3)
        assert unit.fenced() and unit.quiescent()
    assert cluster.wire == []
    assert all(
        (unit.epochs, unit.stamps, unit.pending_version, unit.rebalance_log)
        == ([], {}, None, [])
        for unit in cluster.units
    )


def test_the_shard_servers_view_shows_exactly_what_the_fake_shard_shows():
    """The real view and this file's fake agree on the unit's surface;
    the barrier's and the span pipeline's fakes cover the rest of the
    view."""
    shown = {name for name, value in vars(ShardView).items() if isinstance(value, property)}
    assert shown == VIEW | BARRIER_VIEW | SPAN_VIEW
    fake = Cluster().peers[0]
    assert all(hasattr(fake, name) for name in VIEW)
