"""The one drive of every sharded run: windowed partition scheduling,
in this process or across ``multiprocessing`` workers.

Every run with ``shards > 1`` goes through :func:`run_partitioned` and
its coordinator loop :func:`_drive` — as one partition or as several,
stepped inline or in worker processes.  The partition count W and the
backend choose how the run uses real cores; they never change a
virtual-time result:

* :func:`run_partitioned` executes a sharded run as W **partition
  replicas**.  Each replica builds the world from the same
  :class:`~repro.harness.config.SimulationSettings` and then only its
  slice of the deployment: the shard servers it owns, and the clients
  homed on those shards.  Every other shard and client is an *address
  stub* — a registered network address with no object behind it — so
  routing and the crash oracle's incarnation counters work as for a
  built host.  Static agreement needs no mirroring: every RNG a built
  entity draws from is its own (a client's retry jitter, a cheater's
  choices), the shared workload stream draws every client's phase
  offset whoever owns it, and no constructor posts an event, so what a
  replica skips cannot shift what it keeps.  With W = 1 the one replica
  owns everything, nothing is diverted and no frame is ever encoded.
* Cross-partition messages are not delivered locally.  The replica
  takes the last step of every send of its engine's
  :class:`~repro.net.network.Network` (:meth:`PartitionReplica.emit`):
  for a foreign destination it computes the arrival time on the
  sender's copy of the link (occupying wire/FIFO state exactly as a
  local transmit would, including fault draws) and hands the message —
  encoded with the compact binary codec from
  :mod:`repro.core.messages` — to the coordinator, which routes it to
  the partition owning the destination at the next **epoch barrier**.
* Virtual time advances in bounded windows, each as long as the
  shards' **send promises** allow.  At a barrier every shard promises
  the earliest virtual time it could put a message on the backbone: a
  quiet shard, the earliest pending arrival of a *trigger* — a message
  that can make it speak there
  (:meth:`~repro.core.sharded.ShardedSeveEngine.backbone_trigger`) —
  and a shard that may speak unprompted (a handoff finishing, a
  spanning submission on its host, a fault plan, elastic control, an
  adversary plan), the globally earliest pending event ``E``.  A
  backbone message is then sent no earlier than the smallest promise
  ``P`` and arrives ``backbone_latency_ms`` later, and a client-link
  message sent at or after ``E`` arrives ``rtt_ms / 2`` later, so every
  replica can safely run ``[now, min(P + backbone_latency_ms, E +
  rtt_ms / 2, deadline))`` without hearing from anyone.  Each backbone send is checked against
  its shard's promise, and one sent earlier is a
  :class:`~repro.errors.SimulationError`.  Incoming messages are
  injected at the barrier in a canonical order — ``(arrival, source
  partition, place in that partition's bundle)`` — so tie dispatch
  order is identical no matter how the bundles raced.

**Every W and both backends run the identical schedule.**  The window
ends depend only on event and arrival times and on what the shards
promise, which the partition owning each shard works out the same way
whoever owns the rest;
``parallel=True`` (with W > 1) merely starts one OS process per replica
(forked on single-threaded Linux, spawned elsewhere — see
:func:`start_context`) and
exchanges the same per-epoch bundles over pipes: the worker that owns
partition 0 runs :func:`_drive` over its own replica and a pipe to each
sibling, and the calling process only waits for the W snapshots
(:func:`_run_workers`).  Byte-identical
``RunResult``s are a construction property, not a hope: same replica
build, same window ends, same injection order, same merge pipeline.
The differential tests in ``tests/test_parallel_backend.py`` pin it.

**The lifecycle rules live on the engine, the transport here.**  Start,
crash windows, quiescence and stop-and-drain are methods of
:class:`~repro.core.sharded.ShardedSeveEngine` that consult the slice
the engine builds and drives (``owned_shards``/``owned_clients``); a
:class:`PartitionReplica` only builds, diverts and steps.
Fault plans — including shard crash/restart windows and client
crash/reconnect windows (docs/control_plane.md) — fire on every replica
at the same virtual instants, on the built hosts and the stubs alike;
failover, span-obligation takeover, and
eviction of foreign casualties all travel as ordinary protocol messages
through the barrier transport.

The run stops at the first barrier at or after the workload horizon at
which every partition's slice is quiescent and the elastic control
counters balance — in-flight bundles at that instant are discarded (any
message that could *create* work implies some partition was not
quiescent; see docs/parallel.md for the argument) — or when the drain
budget runs out.  Each replica then stops its slice and drains one
final millisecond, and the partitions run the end-of-run audit where
their replicas and stores live: one exchange through the coordinator
hands each the others' residue and the global gsn map
(:mod:`repro.metrics.shard_audit`), and only the answers reach the
merge.
"""

from __future__ import annotations

import math
import multiprocessing
import sys
import threading
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.core.chassis import ClientStats
from repro.core.messages import MessageCodec
from repro.core.server_incomplete import CLOSURE_MS
from repro.core.sharded import ShardedSeveEngine
from repro.errors import ConfigurationError, SimulationError
from repro.harness.architectures import build_engine
from repro.harness.workload import MoveWorkload, WorkloadStats, start_run
from repro.metrics.shard_audit import AuditShare, Residue, combine
from repro.net.stats import LatencySampler, TrafficMeter
from repro.types import ClientId, TimeMs, shard_host_id

#: One cross-partition message in flight: ``(arrival, src_partition,
#: send_seq, src, dst, frame, size, dropped, incarnation, trigger)``.
#: ``send_seq`` is the entry's place in its partition's bundle (a
#: bundle is routed at the barrier that ends the window it was sent
#: in).  ``frame`` is the codec-encoded payload (``None`` for
#: fault-dropped messages, which still arrive as meter debits).
#: ``incarnation`` is the destination host's incarnation as the
#: *sender* observed it at send time — crash windows are applied on
#: every replica at the same virtual instants, so the counters agree,
#: and a message aimed at a dead incarnation dies at the owner's
#: dispatch exactly as a local send would.  ``trigger`` flags a message
#: that can make its destination shard speak on the backbone.
Entry = Tuple[
    TimeMs, int, int, ClientId, ClientId, Optional[bytes], int, bool, int, bool
]
#: Index of the trigger flag in an :data:`Entry`.
TRIGGER = 9

#: What can end a window, in the order a tie is attributed: the
#: smallest send promise plus the backbone latency, the earliest event
#: plus the client-link latency, the drain deadline, or — nothing
#: pending before the horizon — the horizon itself.
WINDOW_ENDS = ("promise", "client_link", "deadline", "idle")


def start_context():
    """The ``multiprocessing`` context partition workers start from.

    ``fork`` on Linux when the caller runs one thread, ``spawn``
    everywhere else (macOS, Windows, a threaded caller, whose locks a
    fork could copy mid-hold).  A forked worker skips the interpreter
    boot, the re-run of ``__main__`` and the imports a spawned one pays
    before it can build anything.  Either way a worker builds its own
    replica from the settings and shares none with the caller by
    memory; the in-process backend, which runs the replicas inside the
    caller, is pinned byte-identical to both.  The one process-wide
    setting a run reads, the ambient sanitizer mode, a forked worker
    inherits as the in-process replicas read it (docs/parallel.md,
    "Worker processes").  Everything a spawned worker is handed
    (settings, snapshots, bundles) is picklable, by design.
    """
    forkable = sys.platform == "linux" and threading.active_count() == 1
    return multiprocessing.get_context("fork" if forkable else "spawn")


def resolve_workers(settings) -> int:
    """The effective worker count W for ``settings``.

    ``workers == 0`` means *auto*: one partition for the in-process
    backend and one worker per shard for the parallel backend.
    Explicit counts are clamped to the shard count — a shard is the
    unit of ownership and cannot be split.
    """
    if settings.workers > 0:
        return min(settings.workers, settings.shards)
    if settings.backend == "parallel":
        return settings.shards
    return 1


def worker_of_shard(shard: int, shards: int, workers: int) -> int:
    """Owner partition of ``shard``: contiguous stripes of shards."""
    return (shard * workers) // shards


# ---------------------------------------------------------------------------
# Per-epoch reports and end-of-run snapshots
# ---------------------------------------------------------------------------
@dataclass
class BarrierReport:
    """What a replica tells the coordinator at an epoch barrier."""

    #: Cross-partition messages sent during the window just run.
    bundles: List[Entry]
    #: Earliest pending local event, or ``None`` when idle.
    next_event: Optional[TimeMs]
    #: Whether the clock has reached the workload horizon and this
    #: partition's slice has nothing left to drain.
    quiescent: bool
    #: Elastic control messages the owned shards sent minus those they
    #: consumed (docs/elasticity.md).  The coordinator may only declare
    #: the run quiescent when the balances sum to zero — a rebalance in
    #: flight between partitions is invisible to each one's local
    #: predicate.
    elastic_balance: int = 0
    #: The earliest time an owned shard may send on the backbone: its
    #: earliest pending trigger arrival, ``inf`` when none is pending,
    #: and ``-inf`` — the coordinator reads it as the global next event
    #: — while one may speak unprompted.
    promise: TimeMs = -math.inf


@dataclass
class ClientSnapshot:
    """End-of-run state of one owned client (picklable).  Its replica
    and observation log stay in the partition: the audit ran there;
    its counters travel summed, in :attr:`PartitionSnapshot.client_stats`."""

    #: Simulated CPU-milliseconds the client's host burned and the work
    #: items it completed (the row doubles as the host row of
    #: :attr:`MergedRun.client_hosts`).
    cpu_time_used: float
    items_completed: int
    #: Ids of this client's actions the Information Bound dropped.
    dropped: list


@dataclass
class ShardSnapshot:
    """End-of-run state of one owned shard server (picklable): the row
    of :attr:`MergedRun.shard_servers` that stands in for the
    :class:`~repro.core.sharded.ShardServer`, attribute for attribute.
    Its store and gsn map stay in the partition: the audit ran there."""

    shard_index: int
    clients: frozenset
    stats: object
    shard_stats: object
    cpu_time_used: float
    items_completed: int
    #: The shard's Information Bound (its drop counts).
    info_bound: object
    #: Controller-side rebalance log (empty unless it held the lease).
    rebalance_log: tuple
    #: The ``(lo, hi)`` stripe this shard owns at the end of the run.
    stripe: tuple
    #: Completed lease transfers this shard won (docs/control_plane.md).
    failover_log: tuple


@dataclass
class PartitionSnapshot:
    """Everything a partition contributes to the merged run result —
    counters, samples, per-client and per-shard rows and its completed
    share of the end-of-run audit, never a store or a replica: on
    ``sprawl_k4_par`` it pickles to about 0.2 MB
    (``scripts/memory_ratchet.py`` caps a smoke-scale one)."""

    partition: int
    now: TimeMs
    dispatched: int
    meter: object
    response_samples: List[float]
    response_by_client: Dict[ClientId, List[float]]
    workload: object
    clients: Dict[ClientId, ClientSnapshot]
    #: The owned clients' counters, summed.
    client_stats: ClientStats
    shards: List[ShardSnapshot]
    rwset_violations: Tuple[str, ...]
    #: The observer the replica wrote into, if any.
    observer: object
    #: Clients known dead under the fault plan (crashed and never
    #: reconnected, or owned casualties of a shard crash) — excluded
    #: from the surviving population consistency is asserted over.
    dead: Tuple[ClientId, ...]
    #: :meth:`SeveEngine.detection_summary` of the replica's engine
    #: (docs/adversary.md); empty on honest runs.
    detection: Dict[str, object]
    #: The partition's answered share of the end-of-run audit.
    audit: AuditShare


# ---------------------------------------------------------------------------
# The partition replica
# ---------------------------------------------------------------------------
class PartitionReplica:
    """One partition's slice of the engine.

    The replica builds the engine for the shards it owns and the clients
    homed on them (:class:`~repro.core.sharded.ShardedSeveEngine`'s
    ``owned_shards``); every foreign shard and client is an address
    stub, registered so that the crash windows every replica applies
    keep its incarnation in step with its owner's, and nothing more.
    The engine's lifecycle rules (start, crash windows,
    quiescence, stop) consult that slice.  The replica takes the last
    step of every send (:meth:`emit`), diverting traffic addressed to
    foreign hosts and keeping its shards' send promises.  The replica
    itself is transport only: build, divert, and step.  Whoever drives
    it attaches the observer, as any run's, to ``engine.sim.obs``: the
    caller's own in-process, or one a worker builds from the settings,
    which the caller merges at the end.
    """

    def __init__(
        self,
        architecture: str,
        settings,
        partition: int,
        workers: int,
    ) -> None:
        self.settings = settings
        self.partition = partition
        shards = settings.shards
        self.owned_shards = [
            shard
            for shard in range(shards)
            if worker_of_shard(shard, shards, workers) == partition
        ]
        if not self.owned_shards:
            raise ConfigurationError(
                f"partition {partition} of {workers} owns no shard "
                f"(shards={shards})"
            )
        self.engine = engine = build_engine(
            architecture, settings, owned_shards=self.owned_shards
        )
        #: The clients homed on the owned shards — the ones built.
        self.owned_clients = engine.owned_clients
        self.codec = MessageCodec(walls=getattr(engine.world, "walls", None))
        #: Pending trigger arrivals per owned shard host (a heap each),
        #: and the send promises the current window runs under.
        self._triggers = {shard_host_id(shard): [] for shard in self.owned_shards}
        self._granted: Dict[ClientId, TimeMs] = {}
        #: Every host of the deployment but the owned ones.
        self.remote_hosts = frozenset(
            {*range(settings.num_clients), *map(shard_host_id, range(shards))}
            - {*self.owned_clients, *self._triggers}
        )
        self._outgoing: List[Entry] = []
        self._discard_remote = False
        self.workload = MoveWorkload(engine, engine.world, settings)
        engine.network.partition = self

    # -- transport ---------------------------------------------------------
    def emit(self, link, record, extra_delay: TimeMs) -> TimeMs:
        """The last step of every send (``Network._emit``).  A delivery
        to a host this partition owns is scheduled on ``link``; one to
        a foreign host occupies the link the same way and is encoded
        into an outgoing bundle entry.  A message that can make its
        destination shard speak on the backbone is flagged, or noted in
        that shard's trigger heap when the shard is local."""
        src, dst, payload, size, incarnation, dropped = record
        trigger = not dropped and self.engine.backbone_trigger(dst, payload)
        if dst not in self.remote_hosts:
            arrival = link.transmit(
                size, self.engine.network._arrive, record, extra_delay
            )
            if trigger:
                heappush(self._triggers[dst], arrival)
            return arrival
        arrival = link.remote_arrival(size, extra_delay)
        if not self._discard_remote:
            frame = None if dropped else self.codec.encode(payload)
            self._outgoing.append((
                arrival, self.partition, len(self._outgoing), src, dst,
                frame, size, dropped, incarnation, trigger,
            ))  # fmt: skip
        return arrival

    def check(self, src: ClientId, payload: object, now: TimeMs) -> None:
        """The soundness net, on every backbone send: a shard speaking
        before the promise it made at the last barrier is an error."""
        promise = self._granted.get(src, -math.inf)
        if now < promise:
            shard = next(k for k in self.owned_shards if shard_host_id(k) == src)
            raise SimulationError(
                f"shard {shard} sent a {type(payload).__name__} on the "
                f"backbone at {now} ms, before the {promise} ms it promised "
                "at the last barrier"
            )

    def _inject(self, entries: List[Entry]) -> None:
        """Schedule incoming cross-partition messages in canonical order.

        Sorting by ``(arrival, src_partition, send_seq)`` fixes the
        insertion (and hence equal-time dispatch) order regardless of
        how the bundles were concatenated upstream.  Fault-dropped
        messages are injected too: they burn one dispatch and debit
        this partition's meter at the instant a local send's arrival
        event would have.  A flagged trigger is noted for its shard, as
        the local send it stands for would have been, and brings the
        promise the window runs under forward to its arrival.
        """
        post_at = self.engine.sim.post_at
        arrive = self.engine.network._arrive
        for entry in sorted(entries, key=lambda e: (e[0], e[1], e[2])):
            arrival, _, _, src, dst, frame, size, dropped, incarnation, trigger = entry
            payload = None if dropped else self.codec.decode(frame)
            post_at(arrival, arrive, (src, dst, payload, size, incarnation, dropped))
            if trigger:
                heappush(self._triggers[dst], arrival)
                self._granted[dst] = min(self._granted[dst], arrival)

    # -- driving -----------------------------------------------------------
    def start(self) -> None:
        """Activate the owned slice."""
        start_run(self.engine, self.workload, self.settings)

    def launch(self) -> Tuple[List[ClientId], BarrierReport]:
        """Start, and tell the coordinator what it needs before the
        first window: the clients owned and the first report."""
        self.start()
        return self.owned_clients, self.report()

    def _promises(self) -> Dict[ClientId, TimeMs]:
        """Each owned shard's send promise at this barrier, by host:
        its earliest trigger arrival not yet dispatched (``inf`` when
        none is pending), or ``-inf`` while it may speak unprompted."""
        engine, promises = self.engine, {}
        for shard in self.owned_shards:
            host = shard_host_id(shard)
            heap = self._triggers[host]
            while heap and heap[0] < engine.sim.now:
                heappop(heap)
            promises[host] = (
                -math.inf
                if engine.shard_servers[shard].speaks_unprompted()
                else heap[0] if heap else math.inf
            )
        return promises

    def report(self) -> BarrierReport:
        bundles, self._outgoing = self._outgoing, []
        self._granted = self._promises()
        engine = self.engine
        return BarrierReport(
            bundles=bundles,
            next_event=engine.sim.next_event_time(),
            # The predicate scans every owned client; nobody needs the
            # answer before the workload horizon.
            quiescent=engine.sim.now >= self.settings.submit_horizon_ms
            and engine.slice_quiescent(),
            elastic_balance=engine.elastic_balance(),
            promise=min(self._granted.values()),
        )

    def run_window(self, end: TimeMs, entries: List[Entry]) -> BarrierReport:
        """Inject the routed entries, run ``[now, end)`` under the
        promises they leave, and report."""
        self._inject(entries)
        self.engine.sim.run_window(end)
        return self.report()

    def finish(self, deadline: TimeMs) -> Tuple[List[Residue], Dict]:
        """Stop the owned slice, drain the final millisecond, and run
        the local pass of the audit; returns what the exchange needs
        from this partition: its residue and its shards' gsn map.

        Sends to foreign hosts during the drain are discarded, and no
        send is held to a promise: the run is over, as a one-partition
        run leaves same-instant arrivals undispatched in its queue.
        """
        self._discard_remote, self._granted = True, {}
        self.engine.stop_and_drain(deadline)
        self._audit = AuditShare.of(self.engine)
        return self._audit.residue, self.engine.span_gsn_map()

    def audit(self, residues, gsns) -> PartitionSnapshot:
        """Answer the exchange — every other partition's residue
        (``None`` in this one's place) and the global gsn map — and
        snapshot."""
        self._audit.answer(self.engine, residues, gsns)
        return self.snapshot()

    # -- results -----------------------------------------------------------
    def snapshot(self) -> PartitionSnapshot:
        engine = self.engine
        clients = {}
        for client_id in self.owned_clients:
            client = engine.clients[client_id]
            clients[client_id] = ClientSnapshot(
                cpu_time_used=client.host.cpu_time_used,
                items_completed=client.host.items_completed,
                dropped=engine.dropped[client_id],
            )
        shards = []
        for shard in self.owned_shards:
            server = engine.shard_servers[shard]
            shards.append(
                ShardSnapshot(
                    shard_index=shard,
                    clients=frozenset(server.clients),
                    stats=server.stats,
                    shard_stats=server.shard_stats,
                    cpu_time_used=engine.server_hosts[shard].cpu_time_used,
                    items_completed=engine.server_hosts[shard].items_completed,
                    info_bound=server.info_bound,
                    rebalance_log=tuple(server.rebalance_log),
                    stripe=tuple(server.stripe),
                    failover_log=tuple(server.failover_log),
                )
            )
        obs = engine.sim.obs
        if obs is not None:
            # Surface the action classes the transport codec had to
            # pickle (no field encoding of their own) as a metric; zero
            # leaves the metrics registry untouched and the merged
            # output byte-identical.
            for type_name, count in sorted(self.codec.pickle_fallbacks.items()):
                obs.metrics.counter(
                    f"codec.action_pickle.{type_name}"
                ).inc(count)
        return PartitionSnapshot(
            partition=self.partition,
            now=engine.virtual_ms,
            dispatched=engine.events,
            meter=engine.meter,
            response_samples=list(engine.response_times.samples),
            response_by_client={
                client_id: list(samples)
                for client_id, samples in engine.response_times.by_client.items()
            },
            workload=self.workload.stats,
            clients=clients,
            client_stats=engine.client_stats,
            shards=shards,
            rwset_violations=engine.rwset_violations,
            observer=obs,
            dead=tuple(sorted(engine.dead)),
            detection=engine.detection_summary(),
            audit=self._audit,
        )


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------
def _drive(replicas, pipes, settings, obs=None) -> List[PartitionSnapshot]:
    """Advance every partition through the shared window schedule and
    return the snapshots of ``replicas``.

    ``replicas`` are the partition replicas ``0 … len(replicas) − 1``
    (:class:`PartitionReplica`), stepped right here in partition order
    (they may share one observer, so their order shows in it); ``pipes``
    are open connections to the sibling workers that serve the
    partitions after them (:mod:`repro.net.worker` has the protocol).
    A window is posted down every pipe before any replica is stepped,
    so the siblings run while this process does.

    This loop *is* the determinism argument: every sharded run goes
    through it, whatever its partition count and backend, so the window
    ends, the bundle routing, the injection order and the stop instant
    — everything that could reorder events — are decided in exactly
    one place.  A window ends at the first of ``WINDOW_ENDS`` (see the
    module doc); with an observer attached, ``backend.window_end.*``
    counts which term ended each.
    """
    one_way, backbone = settings.rtt_ms / 2.0, settings.backbone_latency_ms
    if min(one_way, backbone) <= 0:
        raise ConfigurationError(
            "windowed partition scheduling needs positive link latencies "
            f"(one-way rtt/2 = {one_way}, backbone = {backbone})"
        )
    horizon = settings.submit_horizon_ms
    deadline = horizon + settings.drain_ms
    workers = len(replicas) + len(pipes)

    launches = [replica.launch() for replica in replicas]
    launches.extend(conn.recv() for conn in pipes)
    host_owner: Dict[ClientId, int] = {}
    for partition, (owned_clients, _) in enumerate(launches):
        for client_id in owned_clients:
            host_owner[client_id] = partition
    for shard in range(settings.shards):
        host_owner[shard_host_id(shard)] = worker_of_shard(
            shard, settings.shards, workers
        )

    reports = [report for _, report in launches]
    now: TimeMs = 0.0
    windows_with_traffic = messages = 0
    ended = dict.fromkeys(WINDOW_ENDS, 0)
    while True:
        bundles = [entry for report in reports for entry in report.bundles]
        if (
            all(report.quiescent for report in reports)
            and sum(report.elastic_balance for report in reports) == 0
        ):
            # Quiescent stop: the first barrier at or after the horizon
            # at which every slice is drained and no elastic control
            # message rides a bundle.  Other in-flight bundles are dead
            # (see module doc).
            break
        if now >= deadline:
            break  # drain budget exhausted
        candidates = [entry[0] for entry in bundles]
        candidates.extend(
            report.next_event
            for report in reports
            if report.next_event is not None
        )
        if not candidates:
            if now < horizon:
                # Queues drained early: advance the clock to the
                # horizon, where quiescence is first asked about.
                next_end, why = horizon, "idle"
            else:
                break  # globally idle
        else:
            soonest = min(candidates)
            promises = [report.promise for report in reports]
            promises.extend(entry[0] for entry in bundles if entry[TRIGGER])
            promise = max(soonest, min(promises))
            ends = (promise + backbone, soonest + one_way, deadline)
            next_end = min(ends)
            why = WINDOW_ENDS[ends.index(next_end)]
        inboxes: List[List[Entry]] = [[] for _ in range(workers)]
        for entry in bundles:
            inboxes[host_owner[entry[4]]].append(entry)
        for conn, inbox in zip(pipes, inboxes[len(replicas):]):
            conn.send(("window", next_end, inbox))
        reports = [
            replica.run_window(next_end, inbox)
            for replica, inbox in zip(replicas, inboxes)
        ]
        reports.extend(conn.recv() for conn in pipes)
        now = next_end
        ended[why] += 1
        if bundles:
            windows_with_traffic += 1
            messages += len(bundles)

    if obs is not None:
        counter = obs.metrics.counter
        counter("backend.windows").inc(sum(ended.values()))
        counter("backend.windows_with_traffic").inc(windows_with_traffic)
        counter("backend.cross_partition_messages").inc(messages)
        for why, count in ended.items():
            counter(f"backend.window_end.{why}").inc(count)
    # The audit exchange: every partition offers its residue and gsn
    # map, and is handed the others' residue and the union of the maps.
    for conn in pipes:
        conn.send(("finish", deadline))
    offers = [replica.finish(deadline) for replica in replicas]
    offers.extend(conn.recv() for conn in pipes)
    gsns = {key: gsn for _, span_gsns in offers for key, gsn in span_gsns.items()}
    residues = [residue for residue, _ in offers]
    handed = [[*residues[:p], None, *residues[p + 1 :]] for p in range(workers)]
    for conn, others in zip(pipes, handed[len(replicas) :]):
        conn.send(("audit", others, gsns))
    return [replica.audit(others, gsns) for replica, others in zip(replicas, handed)]


# ---------------------------------------------------------------------------
# Merge: partition snapshots -> one engine-shaped view
# ---------------------------------------------------------------------------
class MergedRun:
    """The measured surface of a sharded run, over merged snapshots.

    Carries exactly what :func:`repro.harness.runner.run_simulation`
    reads from a finished engine (the surface
    :class:`~repro.core.chassis.EngineChassis` declares) — assembled
    from the picklable per-partition snapshots, which both backends
    hand over in partition order, then id-sorted within each kind of
    row.  Each snapshot row stands in for both the protocol object and
    its host, and the rules that summarise the rows are the sharded
    engine's own.  The audit's verdict is combined from the
    partitions' answered shares (:func:`repro.metrics.shard_audit.combine`).
    """

    _servers = ShardedSeveEngine._servers
    total_dropped = ShardedSeveEngine.total_dropped
    drop_percent = ShardedSeveEngine.drop_percent
    clients_evicted = ShardedSeveEngine.clients_evicted
    shard_rows = ShardedSeveEngine.shard_rows
    rebalance_events = ShardedSeveEngine.rebalance_events
    failover_events = ShardedSeveEngine.failover_events
    live_client_ids = ShardedSeveEngine.live_client_ids

    def __init__(self, snapshots: List[PartitionSnapshot]) -> None:
        self.meter = TrafficMeter()
        self.response_times = LatencySampler()
        self.workload_stats = WorkloadStats()
        merged_clients: Dict[ClientId, ClientSnapshot] = {}
        self.dead: set = set()
        self.rwset_violations: Tuple[str, ...] = ()
        for snapshot in snapshots:
            self.meter.merge_from(snapshot.meter)
            self.response_times.samples.extend(snapshot.response_samples)
            for client_id, samples in snapshot.response_by_client.items():
                self.response_times.by_client[client_id].extend(samples)
            self.workload_stats.moves_submitted += snapshot.workload.moves_submitted
            self.workload_stats.costs.extend(snapshot.workload.costs)
            self.workload_stats.visible_samples.extend(
                snapshot.workload.visible_samples
            )
            merged_clients.update(snapshot.clients)
            self.dead.update(snapshot.dead)
            self.rwset_violations += snapshot.rwset_violations
        self.virtual_ms = max(snapshot.now for snapshot in snapshots)
        self.events = sum(snapshot.dispatched for snapshot in snapshots)
        self.client_stats = ClientStats.total(s.client_stats for s in snapshots)
        self.clients = {
            client_id: merged_clients[client_id]
            for client_id in sorted(merged_clients)
        }
        self.client_hosts = self.clients
        self.dropped = {
            client_id: client.dropped for client_id, client in self.clients.items()
        }
        self.shard_servers = sorted(
            (shard for snapshot in snapshots for shard in snapshot.shards),
            key=lambda s: s.shard_index,
        )
        self.server_hosts = {
            shard.shard_index: shard for shard in self.shard_servers
        }
        self.audits = [snapshot.audit for snapshot in snapshots]
        self.closure_cpu_ms = sum(
            shard.stats.closures_computed * CLOSURE_MS
            for shard in self.shard_servers
        )

        # Adversary detection (docs/adversary.md): sum the per-detector
        # counters, dedupe the flag records — the same (detector, client)
        # pair can fire on several partitions (e.g. lying-rs evidence on
        # every replica applying the pushed lie) — union the quarantines,
        # and take the per-client max footprint: only the cheater's home
        # partition admitted its submissions, the rest report zero.
        self.quarantined: set = set()
        self._detection: Dict[str, object] = {}
        armed = [s.detection for s in snapshots if s.detection]
        if armed:
            counts: Dict[str, int] = {}
            records: Dict[tuple, object] = {}
            blast: Dict[ClientId, int] = {}
            for detection in armed:
                for name, count in detection["detector_counts"].items():
                    counts[name] = counts.get(name, 0) + count
                for record in detection["detection_records"]:
                    records.setdefault((record.detector, record.client_id), record)
                self.quarantined.update(detection["clients_quarantined"])
                for client_id, footprint in detection["blast_radius"].items():
                    blast[client_id] = max(blast.get(client_id, 0), footprint)
            self._detection = {
                "detection_records": tuple(records.values()),
                "detector_counts": counts,
                "clients_quarantined": tuple(sorted(self.quarantined)),
                "blast_radius": blast,
            }

    def detection_summary(self) -> Dict[str, object]:
        return self._detection

    def consistency_report(self, client_ids):
        """The sharded engine's verdict (any-shard history plus span
        order, over the live clients), from the partitions' answers."""
        audit = combine(self.audits, set(self.live_client_ids()))
        return audit.replica_report, audit


# ---------------------------------------------------------------------------
# Entry point (called from the harness runner)
# ---------------------------------------------------------------------------
def _run_workers(
    architecture: str, settings, workers: int, obs
) -> List[PartitionSnapshot]:
    """Start one worker per partition, wait for W snapshots, reap.

    Each worker observes into an empty observer of ``obs``'s shape
    (none when ``obs`` is ``None``), which its snapshot carries back.

    Worker 0 — the lead — is handed one end of a command pipe to every
    sibling and runs :func:`_drive`, the end-of-run audit exchange
    included; the caller keeps only the read end of one result pipe per
    worker, on which each ships its own snapshot (or its traceback).  A
    snapshot carries counters, rows and the partition's answered audit
    share, never a store or a replica (about 0.2 MB on
    ``sprawl_k4_par``), so the caller holds no more than W of those.
    The result pipes are drained in arrival order: a snapshot is still
    larger than a pipe buffer, so listening to one fixed worker first
    would leave the others blocked mid-write.  A worker that dies takes
    the others down with it (its peers read end-of-file), so every pipe
    resolves and the error names them all.
    That needs every copy of a dead worker's ends closed: a forked
    worker inherits each end the caller holds when it starts, and is
    handed the ones that are not its own to close first thing.
    """
    from multiprocessing.connection import wait

    from repro.net.worker import partition_worker_main

    ctx = start_context()
    commands = [ctx.Pipe() for _ in range(1, workers)]
    # What each worker is handed: the lead its end of every command
    # pipe, each sibling the other end of its own.
    peers = [[lead for lead, _ in commands]]
    peers += [[sibling] for _, sibling in commands]
    pending: Dict[object, int] = {}
    processes: list = []
    # What each worker shipped, by partition: ("done", snapshot) or
    # ("error", traceback).
    reports: Dict[int, tuple] = {}
    try:
        for partition, ends in enumerate(peers):
            receive, send = ctx.Pipe(duplex=False)
            pending[receive] = partition
            # A forked worker inherits every end open here; besides its
            # own, that is each result read end so far and the command
            # ends of the workers still to come.  Spawn passes on only
            # what ``args`` names.
            later = [end for rest in peers[partition + 1 :] for end in rest]
            foreign = [*pending, *later] if ctx.get_start_method() == "fork" else []
            process = ctx.Process(
                target=partition_worker_main,
                args=(
                    send, architecture, settings, partition, workers, ends, foreign,
                    None if obs is None else obs.blank(),
                ),
                daemon=True,
            )
            process.start()
            processes.append(process)
            # The worker holds its own copies now; while ours stay
            # open, the peers of a dead worker never read end-of-file.
            for conn in (send, *ends):
                conn.close()
        while pending:
            for conn in wait(list(pending)):
                partition = pending.pop(conn)
                try:
                    reports[partition] = conn.recv()
                except EOFError:
                    reports[partition] = "error", "it exited unexpectedly, without a report"
                conn.close()
    finally:
        for process in processes:
            if pending:  # leaving on an exception: nobody is listening
                process.terminate()
            process.join()
        for conn in pending:
            conn.close()
    failures = {p: body for p, (kind, body) in reports.items() if kind != "done"}
    if failures:
        raise SimulationError(
            "\n".join(
                f"partition worker {partition} failed "
                f"(exit code {processes[partition].exitcode}):\n{report}"
                for partition, report in sorted(failures.items())
            )
        )
    return [reports[partition][1] for partition in range(workers)]


def run_partitioned(
    architecture: str,
    settings,
    *,
    parallel: bool,
    obs=None,
) -> Tuple[MergedRun, object]:
    """Run a sharded deployment through the windowed scheduler.

    Returns ``(merged_run, workload_stats)`` for the runner's
    measurement pipeline.  The replicas are stepped inline, observing
    straight into ``obs`` when one is attached; ``parallel=True`` with
    more than one resolved worker starts one worker process per
    partition instead — the one that owns partition 0 drives the
    windows, this process only waits — and merges their observers into
    ``obs`` at the end.
    """
    workers = resolve_workers(settings)
    if settings.shards < 2:
        raise ConfigurationError(
            f"run_partitioned needs shards > 1 (got shards={settings.shards})"
        )
    if parallel and workers > 1:
        snapshots = _run_workers(architecture, settings, workers, obs)
    else:
        replicas = [
            PartitionReplica(architecture, settings, partition, workers)
            for partition in range(workers)
        ]
        for replica in replicas:
            replica.engine.sim.obs = obs
        snapshots = _drive(replicas, [], settings, obs)
    merged = MergedRun(snapshots)
    if obs is not None:
        for snapshot in snapshots:
            if snapshot.observer not in (None, obs):
                obs.merge_from(snapshot.observer)
    return merged, merged.workload_stats
