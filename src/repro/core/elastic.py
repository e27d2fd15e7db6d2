"""Elastic load-aware sharding: variable-width stripes, epoch-versioned.

A new :class:`~repro.core.sharded.RegionPartition` slices the world
into K equal vertical stripes; a flash crowd in one stripe leaves the
other K-1 shards idle.  This module holds the whole elastic rebalancer
(docs/elasticity.md):

* :class:`ElasticConfig` — the knobs (`--elastic`, sampling interval,
  imbalance threshold, hysteresis window, minimum stripe width).
* :func:`plan_boundaries` — the pure load-density quantile planner the
  controller (the lease holder, shard 0 unless a failover moved it)
  runs over one round of per-shard ``LoadReport`` samples.
* :class:`Rebalancer` — one shard's end of the control protocol: the
  load tick, the controller, the open epochs with their fences and
  region syncs, and the drain barrier.  Like the gsn lease and the
  client handoff barrier (:mod:`repro.core.handoff`) it is a
  transport-free unit: it reaches its shard server only through a
  narrow view (:class:`repro.core.sharded.ShardView`;
  tests/test_rebalancer.py drives it with no engine).

The partition is the same :class:`~repro.core.sharded.RegionPartition`
a static run uses — its ``apply`` moves the interior cuts under a new
version; the messages live in :mod:`repro.core.messages`.

A deployment without an :class:`ElasticConfig` still builds a
:class:`Rebalancer`, an inert one: it never moves a cut and never sends
a control message, which is what keeps ``--elastic`` off byte-identical
to the static engine (the differential tests pin this down).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.messages import (
    DrainDone,
    LoadReport,
    PartitionCommit,
    PartitionUpdate,
    RegionSync,
)
from repro.types import ClientId, TimeMs


#: The last-writer stamp (see :attr:`Rebalancer.stamps`) of an object
#: no writer has touched.
NO_STAMP = (-1, 0, None, ())
#: The writer half of a stamp for a value from outside the stream.
OUTSIDE = (None, ())


@dataclass(frozen=True)
class ElasticConfig:
    """Tuning knobs of the elastic rebalancer (docs/elasticity.md).
    Their legal ranges are declared once, on the ``elastic_*``
    :class:`~repro.harness.config.SimulationSettings` knobs that fill
    them."""

    #: Load-sampling period: every shard reports a (cpu, serialized)
    #: delta to the controller once per interval.
    interval_ms: float = 2000.0
    #: Imbalance trigger: max(shard load) / mean(shard load) must reach
    #: this for a round to count towards the hysteresis window.
    threshold: float = 2.0
    #: Consecutive over-threshold rounds required before a rebalance
    #: fires (suppresses reactions to transient spikes).
    hysteresis: int = 2
    #: Narrowest stripe a rebalance may produce, in world units.
    #: ``None`` lets the engine derive it from the span-classification
    #: slack (stripes narrower than the slack make every action span).
    min_stripe: Optional[float] = None


def plan_boundaries(
    loads: Sequence[float],
    bounds: Sequence[Tuple[float, float]],
    world_width: float,
    min_stripe: float,
) -> List[float]:
    """Quantile cuts equalising per-stripe load.

    Models the load of each *current* stripe as uniformly distributed
    over its x-interval, then cuts the cumulative density at k/K for
    k = 1..K-1.  The model is deliberately crude — a tight crowd inside
    a wide stripe looks uniform over the whole stripe — but repeated
    rounds converge geometrically: each round's stripes narrow around
    the crowd, so the next round's density estimate sharpens.

    Cuts are clamped so no stripe falls below ``min_stripe``.

    >>> plan_boundaries([0.0, 6.0, 6.0, 0.0],
    ...                 [(0, 25), (25, 50), (50, 75), (75, 100)],
    ...                 100.0, 1.0)
    [37.5, 50.0, 62.5]
    >>> plan_boundaries([8.0, 0.0, 0.0, 0.0],
    ...                 [(0, 25), (25, 50), (50, 75), (75, 100)],
    ...                 100.0, 10.0)
    [10.0, 20.0, 30.0]
    """
    shards = len(loads)
    total = float(sum(loads))
    cuts: List[float] = []
    for k in range(1, shards):
        target = total * k / shards
        acc = 0.0
        x = world_width
        for (lo, hi), load in zip(bounds, loads):
            if acc + load >= target:
                x = lo + ((hi - lo) * (target - acc) / load if load > 0 else 0.0)
                break
            acc += load
        cuts.append(x)
    # Enforce the minimum stripe width: forward pass pushes cuts right,
    # backward pass pulls them left of the world edge.
    prev = 0.0
    for k in range(len(cuts)):
        cuts[k] = max(cuts[k], prev + min_stripe)
        prev = cuts[k]
    ceiling = world_width
    for k in range(len(cuts) - 1, -1, -1):
        ceiling -= min_stripe
        cuts[k] = min(cuts[k], ceiling)
    return cuts


@dataclass
class Epoch:
    """A partition version applied on one shard and not yet committed."""

    version: int
    #: Stream position that was next when the version arrived: once the
    #: commit frontier passes it, nothing serialized under the old cuts
    #: is left.
    fence: int
    #: The superseded ``RegionPartition``.
    old: Any
    #: Region syncs sent; DrainDone sent.
    synced: bool = False
    drained: bool = False
    #: Clients this version hands off whose transfer has not left.
    bulk: Set[ClientId] = field(default_factory=set)


class Rebalancer:
    """One shard's end of the elastic rebalancer: its load tick, the
    controller role (live on the lease holder), the open epochs, the
    last-writer stamps and the drain barrier — a transport-free state
    machine, as :class:`~repro.core.control_plane.GsnLease` is.

    Messages come in through :attr:`HANDLERS` (``handler(src,
    message)``; the host binds them with
    :func:`~repro.core.chassis.bound_handlers` and merges them into its
    dispatch table) and the host's events through the hook methods.
    Everything else goes through ``view``, a narrow view of the shard
    server — never the server itself — read afresh at each use:

    * ``shard_index``; ``partition``, the shard's own ``RegionPartition``
      copy, which the unit flips; ``dead``, the shards known down;
      ``is_holder``, whether this shard holds the gsn lease;
    * ``next_pos``, the next stream position, and ``base_pos``, the
      commit frontier; ``store``, the committed store (region syncs
      merge into it); ``clients``, the attached clients; ``cpu_ms``
      and ``serialized``, the host's load so far; ``stats``, the
      ``ShardStats`` the unit counts rebalances and bulk handoffs in;
      ``now``, the virtual clock;
    * the seam helpers ``send_peer(shard, message)``,
      ``broadcast(message)`` and ``to_holder(message)``;
    * ``handoff``, the shard's :class:`~repro.core.handoff.HandoffBarrier`:
      ``rehome(client)`` begins the client's handoff to its new home and
      returns the target (``None``: it stays, or is already migrating),
      ``release()`` sends the transfers parked behind a fence; and the
      request ``refresh(values)``, which re-indexes the positions a sync
      merged.  (The view shows more, for the barrier and the span
      pipeline: see there.)

    With ``config=None`` the unit is inert: no timer, no epoch, always
    quiescent; it still keeps the last-writer stamps its host's span
    verdict reads.  ``src`` is unused throughout.
    """

    # One per shard server: slots keep a built partition replica inside
    # its memory ratchet (scripts/memory_ratchet.py).
    __slots__ = (
        "config", "view", "min_stripe", "load_round", "last_load", "epochs",
        "stamps", "reports", "streak", "pending_version", "drain_done",
        "rebalance_log",
    )

    #: Dispatch table, in the form of the servers' ``HANDLERS``.
    HANDLERS = {
        LoadReport: "on_load_report",
        PartitionUpdate: "on_partition_update",
        RegionSync: "on_region_sync",
        DrainDone: "on_drain_done",
        PartitionCommit: "on_partition_commit",
    }

    def __init__(
        self, config: Optional[ElasticConfig], view, span_slack: float = 0.0
    ) -> None:
        self.config = config
        self.view = view
        #: Narrowest stripe a plan may cut: by default twice the span
        #: classification slack (an inert unit plans nothing).
        self.min_stripe: Optional[float] = None
        if config is not None:
            self.min_stripe = config.min_stripe
            if self.min_stripe is None:
                self.min_stripe = max(1.0, 2.0 * span_slack)
        #: Load rounds ticked so far; a restarted shard joins at the
        #: survivors' round.  The load the last tick reported up to.
        self.load_round = 0
        self.last_load: Tuple[float, int] = (0.0, 0)
        #: Open epochs, oldest first.
        self.epochs: List[Epoch] = []
        #: Last-writer stamp per object: (gsn of last spanning write or
        #: -1, 1 if a local write followed it, the last writer's action
        #: id, its involved shards).  Region syncs carry the first two;
        #: receivers apply strictly-newer entries only.  The last two
        #: are ``(None, ())`` for a write from outside the stream (a
        #: region sync, or the host's dirty mark) and ``()`` for a
        #: local writer; the host's span pipeline reads them for its
        #: peer verdict.
        self.stamps: Dict[object, tuple] = {}
        # -- controller (lease holder) state ------------------------------
        self.reports: Dict[int, Dict[int, LoadReport]] = {}
        self.streak = 0
        #: The version awaiting its drain quorum, and the shards that
        #: drained it (a fresh set per pending version).
        self.pending_version: Optional[int] = None
        self.drain_done: Optional[Set[int]] = None
        #: Rebalances this controller started: {version, at_ms,
        #: imbalance, boundaries}.
        self.rebalance_log: List[dict] = []

    def start(self) -> List[Tuple[TimeMs, Callable[[], None]]]:
        """The ``(period_ms, callback)`` timers the host must run: the
        load tick, or none for an inert unit."""
        return [] if self.config is None else [(self.config.interval_ms, self.tick)]

    def quiescent(self) -> bool:
        """No epoch open and — on the controller — no version awaiting
        its drain quorum."""
        return not self.epochs and not (
            self.pending_version is not None and self.view.is_holder
        )

    # -- the load round ---------------------------------------------------
    def tick(self) -> None:
        """Report the load accumulated since the previous tick to the
        controller (the lease holder)."""
        cpu, serialized = self.view.cpu_ms, self.view.serialized
        last_cpu, last_serialized = self.last_load
        report = LoadReport(
            self.view.shard_index, self.load_round, cpu - last_cpu,
            serialized - last_serialized, len(self.view.clients),
        )
        self.load_round += 1
        self.last_load = (cpu, serialized)
        self.view.to_holder(report)

    def on_load_report(self, src, report: LoadReport) -> None:
        """Controller: collect one round of per-shard samples; track
        the imbalance streak; fire a rebalance past the hysteresis."""
        shards = self.view.partition.shards
        bucket = self.reports.setdefault(report.round, {})
        bucket[report.shard] = report
        if len(bucket) < shards:
            return
        del self.reports[report.round]
        loads = [bucket[k].cpu_ms for k in range(shards)]
        if sum(loads) <= 0.0:
            # Fixed-cost deployments can run with zero modelled server
            # cpu; fall back to the serialization counters.
            loads = [float(bucket[k].serialized) for k in range(shards)]
        total = sum(loads)
        imbalance = max(loads) * shards / total if total > 0.0 else 0.0
        if total <= 0.0 or imbalance < self.config.threshold:
            self.streak = 0
            return
        self.streak += 1
        if self.streak < self.config.hysteresis or self.pending_version is not None:
            return  # not yet, or one rebalance in flight at a time
        self.streak = 0
        self._rebalance(loads, imbalance)

    def _rebalance(self, loads: List[float], imbalance: float) -> None:
        partition = self.view.partition
        bounds = [partition.bounds(k) for k in range(partition.shards)]
        cuts = plan_boundaries(loads, bounds, partition.world_width, self.min_stripe)
        if all(abs(new - old) < 1e-9 for new, old in zip(cuts, partition.boundaries)):
            return  # as balanced as the planner can make it
        version = partition.version + 1
        self.pending_version = version
        self.drain_done = set()
        self.rebalance_log.append(
            dict(version=version, at_ms=self.view.now, imbalance=imbalance,
                 boundaries=tuple(cuts))
        )
        update = PartitionUpdate(version, tuple(cuts))
        self.view.broadcast(update)
        self.on_partition_update(None, update)

    # -- epochs: open, fence, sync ------------------------------------------
    def on_partition_update(self, src, update: PartitionUpdate) -> None:
        """Every shard: flip the partition copy, open an epoch with a
        fence at the current queue position, and begin bulk handoffs
        for every client this shard no longer owns."""
        partition = self.view.partition
        if update.version <= partition.version:
            return  # defensive: the backbone is reliable and FIFO
        epoch = Epoch(update.version, self.view.next_pos, copy.deepcopy(partition))
        partition.apply(update.version, update.boundaries)
        self.epochs.append(epoch)
        for client_id in sorted(self.view.clients):
            if self.view.handoff.rehome(client_id) is not None:
                epoch.bulk.add(client_id)
                self.view.stats.bulk_handoffs += 1
        self.fence()

    def widen(self, x: float, radius: float, involved: Tuple[int, ...]) -> Tuple[int, ...]:
        """Span classification during open epochs: the union over the
        current and every superseded partition, so a write into
        contested territory reaches old and new owner alike."""
        touched = set(involved)
        for epoch in self.epochs:
            touched.update(epoch.old.shards_touching(x, radius))
        return tuple(sorted(touched))

    def note_resolved(self, entry) -> None:
        """Last-writer stamps: spanning writes are ordered by gsn on
        every involved shard; a local write after the last span
        strictly supersedes it (and can only exist on the territory's
        owner).  The host keeps them on every sharded run."""
        if entry.valid is False or entry.completion is None:
            return
        stamps = self.stamps
        for oid in sorted(entry.completion.written_ids()):
            order = (entry.gsn, 0) if entry.gsn >= 0 else (stamps.get(oid, NO_STAMP)[0], 1)
            stamps[oid] = order + (entry.action.action_id, entry.span_involved)

    def mark_dirty(self, oid) -> None:
        """``oid``'s value on this shard came from outside its stream
        (the host adopted its client by handoff): no writer vouches
        for it until the next one commits."""
        self.stamps[oid] = self.stamps.get(oid, NO_STAMP)[:2] + OUTSIDE

    def fence(self) -> None:
        """Once the commit frontier passes an epoch's fence, everything
        serialized under the old boundaries has resolved: send the
        region syncs, then let the handoff barrier send the transfers
        it parked behind the fences.  The host calls it after a whole
        frontier walk, so syncs read the post-merge store."""
        for epoch in self.epochs:
            if not epoch.synced and self.view.base_pos >= epoch.fence:
                self._send_region_syncs(epoch)
                epoch.synced = True
        if self.fenced():
            self.view.handoff.release()
        self._maybe_drain_done()

    def fenced(self) -> bool:
        """Whether every open epoch's region syncs went out: a handoff
        transfer may leave (the syncs reach the gaining shard first on
        the FIFO backbone, so its store is fresh before adoption)."""
        return all(epoch.synced for epoch in self.epochs)

    def _send_region_syncs(self, epoch: Epoch) -> None:
        """Losing side: ship the committed values of every written
        object in each transferred interval to its gaining shard."""
        view = self.view
        old_lo, old_hi = epoch.old.bounds(view.shard_index)
        for shard in range(view.partition.shards):
            if shard == view.shard_index or shard in view.dead:
                continue
            new_lo, new_hi = view.partition.bounds(shard)
            lo, hi = max(old_lo, new_lo), min(old_hi, new_hi)
            if lo >= hi:
                continue
            entries = []
            for oid in sorted(view.store.ids()):
                if view.store.version(oid) <= 1:
                    continue  # still the seeded initial value everywhere
                obj = view.store.get(oid)
                if "x" not in obj or not lo <= float(obj["x"]) < hi:
                    continue
                gsn, local = self.stamps.get(oid, NO_STAMP)[:2]
                entries.append((oid, gsn, local, tuple(sorted(obj.as_dict().items()))))
            if entries:
                view.send_peer(shard, RegionSync(epoch.version, lo, hi, tuple(entries)))

    def on_region_sync(self, src, sync: RegionSync) -> None:
        """Gaining side: adopt strictly-newer values.  A span this
        shard committed after the loser stamped the sync loses the
        stamp comparison, so a racing sync never regresses the store."""
        updates = {}
        for oid, gsn, local, attrs in sync.entries:
            if (gsn, local) <= self.stamps.get(oid, NO_STAMP)[:2]:
                continue
            self.stamps[oid] = (gsn, local) + OUTSIDE
            updates[oid] = dict(attrs)
        if updates:
            self.view.store.merge(updates, commit_index=-1)
            self.view.refresh(updates)

    # -- handoffs the epochs wait on ---------------------------------------
    def handoff_ended(self, client_id: ClientId) -> None:
        """A handoff ended, whichever way: the epochs that waited on it
        as a bulk handoff re-check their drain (a gone client must not
        wedge the barrier)."""
        waiting = [epoch for epoch in self.epochs if client_id in epoch.bulk]
        for epoch in waiting:
            epoch.bulk.discard(client_id)
        if waiting:
            self._maybe_drain_done()

    # -- the drain barrier --------------------------------------------------
    def _maybe_drain_done(self) -> None:
        """An epoch is drained here once its fence passed (syncs sent)
        and every bulk-handoff transfer left; tell the controller."""
        for epoch in list(self.epochs):
            if epoch.synced and not epoch.drained and not epoch.bulk:
                epoch.drained = True
                self.view.to_holder(DrainDone(self.view.shard_index, epoch.version))

    def on_drain_done(self, src, done: DrainDone) -> None:
        """Controller: after every live shard drained, commit the
        version so every shard retires the superseded boundaries."""
        if self.pending_version is None and self.view.is_holder:
            # A controller that took over mid-drain (lease failover or
            # sequencer restart) adopts the version the survivors are
            # still draining; unreachable fault-free — the controller
            # that started a rebalance is the one collecting its dones.
            self.pending_version = done.version
            self.drain_done = set()
        if done.version != self.pending_version:
            return
        self.drain_done.add(done.shard)
        self._check_commit()

    def _check_commit(self) -> None:
        """Commit the pending version once the drain quorum — every
        shard not known dead — has reported."""
        if self.pending_version is None:
            return
        needed = set(range(self.view.partition.shards)) - self.view.dead
        if not needed.issubset(self.drain_done):
            return
        version = self.pending_version
        self.pending_version = self.drain_done = None
        self.view.stats.rebalances += 1
        commit = PartitionCommit(version)
        self.view.broadcast(commit)
        self.on_partition_commit(None, commit)

    def on_partition_commit(self, src, commit: PartitionCommit) -> None:
        self.epochs = [epoch for epoch in self.epochs if epoch.version != commit.version]

    # -- the controller moved, or a shard died or came back -------------------
    def shard_down(self) -> None:
        """A shard died (the host's dead set has it): on the controller
        the drain quorum shrinks, so a crash mid-drain cannot wedge the
        epoch."""
        if self.view.is_holder:
            self._check_commit()

    def adopt(self) -> None:
        """The lease moved: if it came here, adopt the controller role
        mid-drain — the pending version is whatever epoch is still open
        locally (updates are broadcast all-or-nothing, so every
        survivor agrees)."""
        if self.view.is_holder:
            self.pending_version = max((e.version for e in self.epochs), default=None)
            self.drain_done = set()

    def redrive(self) -> None:
        """Re-send the DrainDones the previous holder (or its previous
        incarnation) collected."""
        for epoch in self.epochs:
            epoch.drained = False
        self._maybe_drain_done()

    def catch_up(self, shard: int) -> None:
        """Controller side: an update/commit pair brings restarted
        ``shard`` (whose copy restarted at version 0) to the current
        boundaries without a drain barrier."""
        partition = self.view.partition
        if partition.version > 0:
            update = PartitionUpdate(partition.version, tuple(partition.boundaries))
            self.view.send_peer(shard, update)
            self.view.send_peer(shard, PartitionCommit(update.version))
