"""The one drive of every sharded run: windowed partition scheduling,
in this process or across ``multiprocessing`` workers.

Every run with ``shards > 1`` goes through :func:`run_partitioned` and
its coordinator loop :func:`_drive` — as one partition or as several,
stepped inline or in spawned workers.  The partition count W and the
backend choose how the run uses real cores; they never change a
virtual-time result:

* :func:`run_partitioned` executes a sharded run as W **partition
  replicas**.  Each replica builds the *full* engine from the same
  :class:`~repro.harness.config.SimulationSettings` (identical RNG
  draws, identical object graphs) and narrows it to its slice: the
  shard servers it owns get their periodic processes started, and the
  workload generator submits only for the clients homed on those
  shards.  Everything else in the replica stays dormant — it exists so
  that object construction, seeds, and ids line up exactly.  With
  W = 1 the one replica owns everything, nothing is diverted and no
  frame is ever encoded.
* Cross-partition messages are not delivered locally.  A transport
  divert at the bottom of :class:`~repro.net.network.Network`
  (``remote_sink``/``remote_hosts``) computes the arrival time on the
  sender's copy of the link (occupying wire/FIFO state exactly as a
  local transmit would, including fault draws) and hands the message —
  encoded with the compact binary codec from
  :mod:`repro.core.messages` — to the coordinator, which routes it to
  the partition owning the destination at the next **epoch barrier**.
* Virtual time advances in bounded windows.  With lookahead ``L`` (the
  smallest one-way link latency in the deployment) any message sent at
  time ``t`` arrives no earlier than ``t + L``; so after a barrier at
  which the globally earliest pending event is ``E``, every replica can
  safely run ``[now, E + L)`` without hearing from anyone.  Incoming
  messages are injected at the barrier in a canonical order —
  ``(arrival, source partition, per-partition send seq)`` — so tie
  dispatch order is identical no matter how the bundles raced.

**Every W and both backends run the identical schedule.**  The window
ends depend only on event and arrival times, never on who owns what;
``parallel=True`` (with W > 1) merely spawns one OS process per replica
(``spawn`` start method everywhere — see :func:`spawn_context`) and
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
the engine drives (``owned_shards``/``owned_clients``); a
:class:`PartitionReplica` only builds, narrows, diverts and steps.
Fault plans — including shard crash/restart windows and client
crash/reconnect windows (docs/control_plane.md) — fire on every replica
at the same virtual instants; failover, span-obligation takeover, and
eviction of foreign casualties all travel as ordinary protocol messages
through the barrier transport.

The run stops at the first barrier at or after the workload horizon at
which every partition's slice is quiescent and the elastic control
counters balance — in-flight bundles at that instant are discarded (any
message that could *create* work implies some partition was not
quiescent; see docs/parallel.md for the argument) — or when the drain
budget runs out.  Each replica then stops its slice and drains one
final millisecond.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.messages import MessageCodec
from repro.core.sharded import ShardedSeveEngine
from repro.errors import ConfigurationError, SimulationError
from repro.types import ClientId, TimeMs, shard_host_id

#: One cross-partition message in flight: ``(arrival, src_partition,
#: send_seq, src, dst, frame, size, dropped, incarnation)``.  ``frame``
#: is the codec-encoded payload (``None`` for fault-dropped messages,
#: which still arrive as meter debits).  ``incarnation`` is the
#: destination host's incarnation as the *sender* observed it at send
#: time — crash windows are applied on every replica at the same
#: virtual instants, so the counters agree, and a message aimed at a
#: dead incarnation dies at the owner's dispatch exactly as a local
#: send would.
Entry = Tuple[
    TimeMs, int, int, ClientId, ClientId, Optional[bytes], int, bool, int
]


def spawn_context():
    """The ``multiprocessing`` context every backend component uses.

    Always ``spawn``: fork would duplicate the parent's interpreter
    state (open observers, pytest fixtures, random module state) into
    the workers on Linux while macOS/Windows spawn fresh interpreters —
    the same run would then behave differently per platform.  Spawn
    gives every worker a clean interpreter everywhere, at the cost of
    requiring everything shipped to a worker to be picklable (settings,
    snapshots, and bundles are, by design).
    """
    return multiprocessing.get_context("spawn")


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


@dataclass
class ClientSnapshot:
    """End-of-run state of one owned client (picklable)."""

    stable: object
    observations: Optional[list]
    stats: object
    #: Simulated CPU-milliseconds the client's host burned (the row
    #: doubles as the host row of :attr:`MergedRun.client_hosts`).
    cpu_time_used: float
    #: Ids of this client's actions the Information Bound dropped.
    dropped: list


@dataclass
class ShardSnapshot:
    """End-of-run state of one owned shard server (picklable): the row
    of :attr:`MergedRun.shard_servers` that stands in for the
    :class:`~repro.core.sharded.ShardServer`, attribute for attribute."""

    shard_index: int
    clients: frozenset
    stats: object
    shard_stats: object
    costs: object
    span_gsns: Dict
    state: object
    cpu_time_used: float
    #: Controller-side rebalance log (empty unless it held the lease).
    rebalance_log: tuple
    #: The ``(lo, hi)`` stripe this shard owns at the end of the run.
    stripe: tuple
    #: Completed lease transfers this shard won (docs/control_plane.md).
    failover_log: tuple


@dataclass
class PartitionSnapshot:
    """Everything a partition contributes to the merged run result."""

    partition: int
    now: TimeMs
    dispatched: int
    meter: object
    response_samples: List[float]
    response_by_client: Dict[ClientId, List[float]]
    workload: object
    clients: Dict[ClientId, ClientSnapshot]
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


# ---------------------------------------------------------------------------
# The partition replica
# ---------------------------------------------------------------------------
class PartitionReplica:
    """One partition's full engine with only its own slice activated.

    The replica builds the complete deployment from ``settings`` — all
    K shards, all clients, the full world — so that every construction-
    time RNG draw and id assignment matches every other replica.  It
    then narrows the engine to the shards and clients it owns — the
    engine's lifecycle rules (start, crash windows, quiescence, stop)
    consult that slice — and diverts traffic addressed to foreign hosts
    through the network's ``remote_sink``.  The replica itself is
    transport only: build, divert, and step.
    """

    def __init__(
        self,
        architecture: str,
        settings,
        partition: int,
        workers: int,
        obs=None,
    ) -> None:
        from repro.harness.architectures import build_engine
        from repro.harness.workload import MoveWorkload

        self.settings = settings
        self.partition = partition
        #: The caller's observer when the replica runs in the caller's
        #: process; a spawned worker builds its own, which the caller
        #: merges at the end.
        self.obs = obs if obs is not None else settings.make_observer()
        self.engine = engine = build_engine(architecture, settings, obs=self.obs)
        shards = settings.shards
        # Home shards derive from the deterministic build, so every
        # replica computes the same ownership.
        engine.owned_shards = self.owned_shards = [
            shard
            for shard in range(shards)
            if worker_of_shard(shard, shards, workers) == partition
        ]
        if not self.owned_shards:
            raise ConfigurationError(
                f"partition {partition} of {workers} owns no shard "
                f"(shards={shards})"
            )
        engine.owned_clients = self.owned_clients = [
            client_id
            for client_id in range(settings.num_clients)
            if worker_of_shard(engine.home_shard(client_id), shards, workers)
            == partition
        ]
        self.codec = MessageCodec(walls=getattr(engine.world, "walls", None))
        owned_hosts = set(self.owned_clients) | {
            shard_host_id(shard) for shard in self.owned_shards
        }
        all_hosts = set(range(settings.num_clients)) | {
            shard_host_id(shard) for shard in range(shards)
        }
        engine.network.remote_hosts = frozenset(all_hosts - owned_hosts)
        engine.network.remote_sink = self._sink
        self._outgoing: List[Entry] = []
        self._send_seq = 0
        self._discard_remote = False
        self.workload = MoveWorkload(engine, engine.world, settings)

    # -- transport ---------------------------------------------------------
    def _sink(
        self,
        src: ClientId,
        dst: ClientId,
        payload: object,
        size_bytes: int,
        arrival: TimeMs,
        dropped: bool,
        incarnation: int = 0,
    ) -> None:
        if self._discard_remote:
            return
        seq = self._send_seq
        self._send_seq += 1
        frame = None if dropped else self.codec.encode(payload)
        self._outgoing.append(
            (
                arrival,
                self.partition,
                seq,
                src,
                dst,
                frame,
                size_bytes,
                dropped,
                incarnation,
            )
        )

    def _inject(self, entries: List[Entry]) -> None:
        """Schedule incoming cross-partition messages in canonical order.

        Sorting by ``(arrival, src_partition, send_seq)`` fixes the
        insertion (and hence equal-time dispatch) order regardless of
        how the bundles were concatenated upstream.  Fault-dropped
        messages are injected too: they burn one dispatch and debit
        this partition's meter at the instant a local send's arrival
        event would have.
        """
        post_at = self.engine.sim.post_at
        arrive = self.engine.network._arrive
        for arrival, _, _, src, dst, frame, size, dropped, incarnation in sorted(
            entries, key=lambda e: (e[0], e[1], e[2])
        ):
            payload = None if dropped else self.codec.decode(frame)
            post_at(arrival, arrive, (src, dst, payload, size, incarnation, dropped))

    # -- driving -----------------------------------------------------------
    def start(self) -> None:
        """Activate the owned slice."""
        from repro.harness.workload import start_run

        start_run(self.engine, self.workload, self.settings)

    def launch(self) -> Tuple[List[ClientId], BarrierReport]:
        """Start, and tell the coordinator what it needs before the
        first window: the clients owned and the first report."""
        self.start()
        return self.owned_clients, self.report()

    def report(self) -> BarrierReport:
        bundles = self._outgoing
        self._outgoing = []
        engine = self.engine
        return BarrierReport(
            bundles=bundles,
            next_event=engine.sim.next_event_time(),
            # The predicate scans every owned client; nobody needs the
            # answer before the workload horizon.
            quiescent=engine.sim.now >= self.settings.submit_horizon_ms
            and engine.slice_quiescent(),
            elastic_balance=engine.elastic_balance(),
        )

    def run_window(self, end: TimeMs, entries: List[Entry]) -> BarrierReport:
        """Inject the routed entries, run ``[now, end)``, and report."""
        self._inject(entries)
        self.engine.sim.run_window(end)
        return self.report()

    def finish(self, deadline: TimeMs) -> PartitionSnapshot:
        """Stop the owned slice, drain the final millisecond, snapshot.

        Sends to foreign hosts during the drain are discarded: the run
        is over, as a one-partition run leaves same-instant arrivals
        undispatched in its queue.
        """
        self._discard_remote = True
        self.engine.stop_and_drain(deadline)
        return self.snapshot()

    # -- results -----------------------------------------------------------
    def snapshot(self) -> PartitionSnapshot:
        engine = self.engine
        clients = {}
        for client_id in self.owned_clients:
            client = engine.clients[client_id]
            clients[client_id] = ClientSnapshot(
                stable=client.stable,
                observations=client.observations,
                stats=client.stats,
                cpu_time_used=client.host.cpu_time_used,
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
                    costs=server.costs,
                    span_gsns=dict(server.span_gsns),
                    state=engine.shard_states[shard],
                    cpu_time_used=engine.server_hosts[shard].cpu_time_used,
                    rebalance_log=tuple(server.rebalance_log),
                    stripe=tuple(server.stripe),
                    failover_log=tuple(server.failover_log),
                )
            )
        if self.obs is not None:
            # Surface the action classes the transport codec had to
            # pickle (no field encoding of their own) as a metric; zero
            # leaves the metrics registry untouched and the merged
            # output byte-identical.
            for type_name, count in sorted(self.codec.pickle_fallbacks.items()):
                self.obs.metrics.counter(
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
            shards=shards,
            rwset_violations=engine.rwset_violations,
            observer=self.obs,
            dead=tuple(sorted(engine.dead)),
            detection=engine.detection_summary(),
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
    one place.
    """
    lookahead = min(settings.rtt_ms / 2.0, settings.backbone_latency_ms)
    if lookahead <= 0:
        raise ConfigurationError(
            "windowed partition scheduling needs positive link latencies "
            f"(one-way rtt/2 = {settings.rtt_ms / 2.0}, backbone = "
            f"{settings.backbone_latency_ms})"
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
    windows = windows_with_traffic = messages = 0
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
                next_end = horizon
            else:
                break  # globally idle
        else:
            next_end = min(min(candidates) + lookahead, deadline)
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
        windows += 1
        if bundles:
            windows_with_traffic += 1
            messages += len(bundles)

    if obs is not None:
        counter = obs.metrics.counter
        counter("backend.windows").inc(windows)
        counter("backend.windows_with_traffic").inc(windows_with_traffic)
        counter("backend.cross_partition_messages").inc(messages)
    for conn in pipes:
        conn.send(("finish", deadline))
    return [replica.finish(deadline) for replica in replicas]


# ---------------------------------------------------------------------------
# Merge: partition snapshots -> one engine-shaped view
# ---------------------------------------------------------------------------
class MergedRun:
    """The measured surface of a sharded run, over merged snapshots.

    Carries exactly what :func:`repro.harness.runner.run_simulation`
    reads from a finished engine (the surface
    :class:`~repro.core.chassis.EngineChassis` declares) and what
    :func:`repro.metrics.shard_audit.audit_sharded_run` consumes —
    assembled from picklable per-partition snapshots in deterministic
    (partition-, then id-sorted) order.  Each snapshot row stands in
    for both the protocol object and its host, and the rules that
    summarise the rows are the sharded engine's own.
    """

    _servers = ShardedSeveEngine._servers
    total_dropped = ShardedSeveEngine.total_dropped
    drop_percent = ShardedSeveEngine.drop_percent
    clients_evicted = ShardedSeveEngine.clients_evicted
    shard_rows = ShardedSeveEngine.shard_rows
    rebalance_events = ShardedSeveEngine.rebalance_events
    failover_events = ShardedSeveEngine.failover_events
    live_client_ids = ShardedSeveEngine.live_client_ids
    span_gsn_map = ShardedSeveEngine.span_gsn_map
    consistency_report = ShardedSeveEngine.consistency_report

    def __init__(self, snapshots: List[PartitionSnapshot]) -> None:
        from repro.harness.workload import WorkloadStats
        from repro.net.stats import LatencySampler, TrafficMeter

        snapshots = sorted(snapshots, key=lambda s: s.partition)
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
        self.shard_states = [shard.state for shard in self.shard_servers]
        self.closure_cpu_ms = sum(
            shard.stats.closures_computed * shard.costs.closure_ms
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


# ---------------------------------------------------------------------------
# Entry point (called from the harness runner)
# ---------------------------------------------------------------------------
def _run_workers(architecture: str, settings, workers: int) -> List[PartitionSnapshot]:
    """Spawn one worker per partition, wait for W snapshots, reap.

    Worker 0 — the lead — is handed one end of a command pipe to every
    sibling and runs :func:`_drive`; the caller keeps only the read end
    of one result pipe per worker, on which each ships its own snapshot
    (or its traceback).  The result pipes are drained in arrival order:
    a snapshot is far larger than a pipe buffer, so listening to one
    fixed worker first would leave the others blocked mid-write.  A
    worker that dies takes the others down with it (its peers read
    end-of-file), so every pipe resolves and the error names them all.
    """
    from multiprocessing.connection import wait

    from repro.net.worker import partition_worker_main

    ctx = spawn_context()
    commands = [ctx.Pipe() for _ in range(1, workers)]
    # What each worker is handed: the lead its end of every command
    # pipe, each sibling the other end of its own.
    peers = [[lead for lead, _ in commands]]
    peers += [[sibling] for _, sibling in commands]
    pending: Dict[object, int] = {}
    processes: list = []
    snapshots: List[PartitionSnapshot] = []
    failures: Dict[int, str] = {}
    try:
        for partition, ends in enumerate(peers):
            receive, send = ctx.Pipe(duplex=False)
            pending[receive] = partition
            process = ctx.Process(
                target=partition_worker_main,
                args=(send, architecture, settings, partition, workers, ends),
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
                    kind, body = conn.recv()
                except EOFError:
                    kind, body = "error", "it exited unexpectedly, without a report"
                conn.close()
                if kind == "done":
                    snapshots.append(body)
                else:
                    failures[partition] = body
    finally:
        for process in processes:
            if pending:  # leaving on an exception: nobody is listening
                process.terminate()
            process.join()
        for conn in pending:
            conn.close()
    if failures:
        raise SimulationError(
            "\n".join(
                f"partition worker {partition} failed "
                f"(exit code {processes[partition].exitcode}):\n{report}"
                for partition, report in sorted(failures.items())
            )
        )
    return sorted(snapshots, key=lambda snapshot: snapshot.partition)


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
    more than one resolved worker spawns one worker process per
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
        snapshots = _run_workers(architecture, settings, workers)
    else:
        replicas = [
            PartitionReplica(architecture, settings, partition, workers, obs=obs)
            for partition in range(workers)
        ]
        snapshots = _drive(replicas, [], settings, obs)
    merged = MergedRun(snapshots)
    if obs is not None:
        for snapshot in snapshots:
            if snapshot.observer not in (None, obs):
                obs.merge_from(snapshot.observer)
    return merged, merged.workload_stats
