"""Pluggable execution backends: windowed partition scheduling for
sharded runs, in-process or across ``multiprocessing`` workers.

The classic harness drives one :class:`~repro.net.simulator.Simulator`
holding every host of the deployment — all K shard servers serialize
through one Python interpreter, so the virtual-time K-way scaling of
:mod:`repro.core.sharded` never shows up on real cores.  This module
makes it real while keeping the determinism story intact:

* :func:`run_partitioned` executes a sharded run as W **partition
  replicas**.  Each replica builds the *full* engine from the same
  :class:`~repro.harness.config.SimulationSettings` (identical RNG
  draws, identical object graphs) but *activates* only its slice: the
  shard servers it owns get their periodic processes started, and the
  workload generator submits only for the clients homed on those
  shards.  Everything else in the replica stays dormant — it exists so
  that object construction, seeds, and ids line up exactly.
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

**The two backends run the identical schedule.**
:func:`run_partitioned` with ``parallel=False`` steps the W replicas
inline in one process; with ``parallel=True`` it spawns one OS process
per replica (``spawn`` start method everywhere — see
:func:`spawn_context`) and exchanges the same per-epoch bundles over
pipes.  Byte-identical ``RunResult``s between the two are a
construction property, not a hope: same replica build, same window
ends, same injection order, same merge pipeline.  The differential
tests in ``tests/test_parallel_backend.py`` pin it.

Fault plans — including shard crash/restart windows and client
crash/reconnect windows (docs/control_plane.md) — fire on every
replica at the same virtual instants.  Each replica applies the
effects its slice owns (real crash/recovery for owned servers, the
client-local casualty rule for owned clients) and merely parks/revives
foreign hosts so incarnation counters stay in lockstep; failover,
span-obligation takeover, and eviction of foreign casualties all
travel as ordinary protocol messages through the barrier transport.

Quiescence and drain mirror the classic runner: once the barrier clock
passes the workload horizon and every partition reports no pending
client actions, no migrations, no handoffs, and no uncommitted server
entries, the run stops — in-flight bundles at that instant are
discarded (any message that could *create* work implies some partition
was not quiescent; see docs/parallel.md for the argument), each replica
stops its servers and drains one final millisecond, exactly like
``run_to_quiescence``.  The windowed drain is a documented semantic
refinement of the K>1 runner path: virtual timestamps can differ
slightly from the classic single-heap drive, but never between the two
backends.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.core.messages import MessageCodec
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

    ``workers == 0`` means *auto*: 1 for the in-process backend (the
    classic single-engine path, unchanged) and one worker per shard for
    the parallel backend.  Explicit counts are clamped to the shard
    count — a shard is the unit of ownership and cannot be split.
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
    #: Whether this partition's slice satisfies the quiescence predicate.
    quiescent: bool
    #: The replica clock (== the window end; sanity-checked upstream).
    now: TimeMs
    #: Elastic control messages sent/received by owned shards so far
    #: (docs/elasticity.md).  The coordinator may only declare the run
    #: quiescent when the global sums match — a rebalance in flight
    #: between partitions is invisible to each one's local predicate.
    elastic_sent: int = 0
    elastic_received: int = 0


@dataclass
class ClientSnapshot:
    """End-of-run state of one owned client (picklable)."""

    stable: object
    observations: Optional[list]
    submitted: int
    cpu_ms: float


@dataclass
class ShardSnapshot:
    """End-of-run state of one owned shard server (picklable)."""

    shard_index: int
    client_ids: Tuple[ClientId, ...]
    stats: object
    shard_stats: object
    costs: object
    span_gsns: Dict
    state: object
    cpu_ms: float
    #: Controller-side rebalance log (the sequencer's; empty otherwise).
    rebalance_log: tuple = ()
    #: The ``(lo, hi)`` stripe this shard owns at the end of the run.
    stripe: tuple = ()
    #: Completed lease transfers this shard won (docs/control_plane.md).
    failover_log: tuple = ()
    #: Whether the shard's host was crashed (and not restarted).
    crashed: bool = False


@dataclass
class PartitionSnapshot:
    """Everything a partition contributes to the merged run result."""

    partition: int
    now: TimeMs
    dispatched: int
    meter: object
    response_samples: List[float]
    response_by_client: Dict[ClientId, List[float]]
    dropped_actions: int
    submitted_actions: int
    workload: object
    clients: Dict[ClientId, ClientSnapshot]
    shards: List[ShardSnapshot]
    rwset_violations: Tuple[str, ...]
    observer: object = None
    #: Owned clients that died under the fault plan (crashed and never
    #: reconnected, or casualties of a shard crash) — excluded from the
    #: surviving population consistency is asserted over.
    dead: Tuple[ClientId, ...] = ()
    # -- adversary detection (docs/adversary.md); defaults = honest run --
    #: :class:`repro.core.detection.DetectionRecord` tuples (picklable).
    detection: Tuple = ()
    #: Clients this partition's detector quarantined (owned ones only).
    quarantined: Tuple[ClientId, ...] = ()
    #: Per-detector raw hit counts; ``None`` when no plan was armed.
    detector_counts: object = None
    #: Admitted-write footprint per quarantined client (``None`` when no
    #: plan was armed).  Only the cheater's home partition admits its
    #: submissions, so other partitions report zero for that client.
    blast_radius: object = None


class _Rendered:
    """A pre-rendered sanitizer violation (render() is cross-process)."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text

    def render(self) -> str:
        return self.text


# ---------------------------------------------------------------------------
# The partition replica
# ---------------------------------------------------------------------------
class PartitionReplica:
    """One partition's full engine with only its own slice activated.

    The replica builds the complete deployment from ``settings`` — all
    K shards, all clients, the full world — so that every construction-
    time RNG draw and id assignment matches every other replica.  It
    then *starts* only the owned shards' periodic processes and the
    owned clients' workload generators, and diverts traffic addressed
    to foreign hosts through the network's ``remote_sink``.
    """

    def __init__(
        self,
        architecture: str,
        settings,
        partition: int,
        workers: int,
    ) -> None:
        from repro.harness.architectures import build_engine
        from repro.harness.workload import MoveWorkload

        self.settings = settings
        self.partition = partition
        self.workers = workers
        obs = None
        if settings.wants_observer:
            from repro.obs import Observer

            obs = Observer(
                trace=settings.trace_out is not None, profile=settings.profile
            )
        self.obs = obs
        self.engine = build_engine(architecture, settings, obs=obs)
        engine = self.engine
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
        #: Every client's owner partition — identical on every replica
        #: because home shards derive from the deterministic build.
        self.client_owner = {
            client_id: worker_of_shard(
                engine.home_shard(client_id), shards, workers
            )
            for client_id in range(settings.num_clients)
        }
        self.owned_clients = [
            client_id
            for client_id in sorted(self.client_owner)
            if self.client_owner[client_id] == partition
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
        if engine.detector is not None:
            # Quarantine is partition-local: every replica builds the
            # full deployment, but a cheater's home shard — the choke
            # point all its submissions and completions go through — is
            # owned by the same partition that owns the client, so the
            # owner sees every detection that matters and only the
            # owner may evict the cheater and stop its workload.
            engine.quarantine_filter = set(self.owned_clients)
            engine.on_quarantine = self.workload.stop_client

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
        this partition's meter at the instant the classic path's
        arrival event would have.
        """
        sim = self.engine.sim
        network = self.engine.network
        meter = network.meter
        for arrival, _, _, src, dst, frame, size, dropped, incarnation in sorted(
            entries, key=lambda e: (e[0], e[1], e[2])
        ):
            if dropped:
                sim.schedule_at(
                    arrival,
                    lambda s=src, d=dst, z=size: meter.note_dropped(s, d, z),
                )
            else:
                payload = self.codec.decode(frame)
                sim.schedule_at(
                    arrival,
                    lambda s=src, d=dst, p=payload, z=size, i=incarnation: (
                        network._dispatch(s, d, p, z, i)
                    ),
                )

    # -- driving -----------------------------------------------------------
    def start(self) -> None:
        """Activate the owned slice (mirrors the classic runner's start
        sequencing).  Crash plans are applied replica-locally: every
        replica schedules every window at the same virtual instants, but
        each applies only the effects its slice owns — owned servers get
        crashed/recovered for real, owned clients compute the casualty
        rule from their (authoritative) local state, and foreign hosts
        are only parked/revived on the network so incarnation counters
        and ARQ bypass decisions agree across partitions.  Everything
        else — span takeover, lease failover, liveness eviction of a
        foreign partition's casualties — travels as protocol messages,
        exactly as it does between shards of the classic engine."""
        settings = self.settings
        engine = self.engine
        plan = settings.fault_plan
        faults_active = plan is not None and not plan.is_null
        horizon = settings.workload_duration_ms + 2 * settings.move_interval_ms
        stop_at = horizon + settings.drain_ms if faults_active else None
        engine._stop_at = stop_at
        for shard in self.owned_shards:
            engine.shard_servers[shard].start(stop_at=stop_at)
        if faults_active and engine.config.liveness is not None:
            for client_id in self.owned_clients:
                engine._install_heartbeat(client_id, stop_at=stop_at)
        if plan is not None:
            for window in plan.crashes:
                if window.is_shard:
                    engine.sim.schedule_at(
                        window.at_ms,
                        lambda k=window.shard_index: self._crash_shard(k),
                    )
                    if window.reconnect_at_ms is not None:
                        engine.sim.schedule_at(
                            window.reconnect_at_ms,
                            lambda k=window.shard_index: self._restart_shard(k),
                        )
                else:
                    engine.sim.schedule_at(
                        window.at_ms,
                        lambda c=window.client_id: self._crash_client(c),
                    )
                    if window.reconnect_at_ms is not None:
                        engine.sim.schedule_at(
                            window.reconnect_at_ms,
                            lambda c=window.client_id: self._revive_client(c),
                        )
        self.workload.install(only=self.owned_clients)

    # -- crash windows (docs/control_plane.md) -----------------------------
    def _crash_shard(self, shard: int) -> None:
        """Apply one shard-crash window to this replica's slice."""
        engine = self.engine
        host_id = shard_host_id(shard)
        server = engine.shard_servers[shard]
        server._crashed = True
        if shard in self.owned_shards:
            server.stop()
        engine.crashed_shards.add(shard)
        engine.network.crash(host_id)
        for k in self.owned_shards:
            peer = engine.shard_servers[k]
            if not peer._crashed:
                peer.note_shard_down(shard)
        # Casualties: the client-local rule over *owned* clients only —
        # a foreign client's attachment state is stale here by design,
        # so its owner decides; foreign shards that still hold such a
        # casualty evict it through the ordinary liveness sweep once its
        # heartbeats stop.
        casualties = engine._shard_crash_victims(shard, among=self.owned_clients)
        for client_id in casualties:
            engine.mark_dead(client_id)
            if engine.network.is_registered(client_id):
                engine.network.crash(client_id)
            self.workload.stop_client(client_id)
        for client_id in casualties:
            for k in self.owned_shards:
                peer = engine.shard_servers[k]
                if not peer._crashed and client_id in peer.clients:
                    peer.evict_client(client_id)
        engine._redirect_rejoins(shard, among=self.owned_clients)

    def _restart_shard(self, shard: int) -> None:
        """Apply one shard-restart to this replica's slice."""
        engine = self.engine
        if shard in self.owned_shards:
            engine.restart_shard(shard)
            return
        # Foreign shard: unpark the dormant stand-in and bump the
        # incarnation in lockstep with the owner's revive, so sends from
        # this partition stamp the incarnation the real replacement
        # server answers to.
        engine.network.reconnect(shard_host_id(shard))
        engine.shard_servers[shard]._crashed = False
        engine.crashed_shards.discard(shard)

    def _crash_client(self, client_id: ClientId) -> None:
        """Apply one client-crash window to this replica's slice."""
        engine = self.engine
        if self.client_owner[client_id] == self.partition:
            self.workload.stop_client(client_id)
            engine.network.crash(client_id)
            engine.mark_dead(client_id)
        else:
            # Park the dormant stand-in: sends to it bypass ARQ and its
            # incarnation counter stays in lockstep for the reconnect.
            engine.network.crash(client_id)

    def _revive_client(self, client_id: ClientId) -> None:
        """Apply one client-reconnect to this replica's slice."""
        engine = self.engine
        engine.network.reconnect(client_id)
        if self.client_owner[client_id] == self.partition:
            engine.mark_alive(client_id)
            self.workload.resume_client(client_id)

    def report(self) -> BarrierReport:
        bundles = self._outgoing
        self._outgoing = []
        servers = [
            self.engine.shard_servers[shard] for shard in self.owned_shards
        ]
        return BarrierReport(
            bundles=bundles,
            next_event=self.engine.sim.next_event_time(),
            quiescent=self._quiescent(),
            now=self.engine.sim.now,
            elastic_sent=sum(
                getattr(server, "elastic_sent", 0) for server in servers
            ),
            elastic_received=sum(
                getattr(server, "elastic_received", 0) for server in servers
            ),
        )

    def run_window(self, end: TimeMs, entries: List[Entry]) -> BarrierReport:
        """Inject the routed entries, run ``[now, end)``, and report."""
        self._inject(entries)
        self.engine.sim.run_window(end)
        return self.report()

    def _quiescent(self) -> bool:
        engine = self.engine
        quarantined = getattr(engine, "quarantined", ())
        dead = getattr(engine, "dead", ())
        for client_id in self.owned_clients:
            if client_id in quarantined or client_id in dead:
                continue  # evicted/crashed mid-flight; nothing to drain
            client = engine.clients[client_id]
            if client.pending_count or client._migrating:
                return False
        for shard in self.owned_shards:
            server = engine.shard_servers[shard]
            if server._crashed:
                continue  # a dead shard drains nothing
            if server._handoffs or server.uncommitted_count:
                return False
            if getattr(server, "elastic", None) is not None:
                # A rebalance epoch still open on an owned shard, or a
                # partition version awaiting drain on the controller.
                if server._epochs or server._pending_version is not None:
                    return False
        return True

    def finish(self, t_stop: TimeMs, deadline: TimeMs) -> PartitionSnapshot:
        """Stop owned servers, drain the final millisecond, snapshot.

        Sends to foreign hosts during the drain are discarded — the run
        is over, exactly as the classic drive leaves same-instant
        arrivals undispatched in its queue.
        """
        self._discard_remote = True
        for shard in self.owned_shards:
            self.engine.shard_servers[shard].stop()
        self.engine.sim.run(until=min(t_stop + 1.0, deadline))
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
                submitted=client.stats.submitted,
                cpu_ms=engine.client_hosts[client_id].cpu_time_used,
            )
        shards = []
        for shard in self.owned_shards:
            server = engine.shard_servers[shard]
            shards.append(
                ShardSnapshot(
                    shard_index=shard,
                    client_ids=tuple(sorted(server.clients)),
                    stats=server.stats,
                    shard_stats=server.shard_stats,
                    costs=server.costs,
                    span_gsns=dict(server.span_gsns),
                    state=engine.shard_states[shard],
                    cpu_ms=engine.server_hosts[shard].cpu_time_used,
                    rebalance_log=tuple(getattr(server, "rebalance_log", ())),
                    stripe=tuple(server.partition.bounds(shard)),
                    failover_log=tuple(server.lease.log),
                    crashed=server._crashed,
                )
            )
        recorder = engine.rwset_recorder
        violations = tuple(
            violation.render()
            for violation in (recorder.violations if recorder is not None else ())
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
        detector = engine.detector
        detection: Tuple = ()
        quarantined: Tuple[ClientId, ...] = ()
        detector_counts = None
        blast_radius = None
        if detector is not None:
            detection = tuple(detector.records)
            quarantined = tuple(sorted(engine.quarantined))
            detector_counts = dict(detector.counts)
            blast_radius = dict(detector.blast_radius)
        return PartitionSnapshot(
            partition=self.partition,
            now=engine.sim.now,
            dispatched=engine.sim.dispatched,
            meter=engine.network.meter,
            response_samples=list(engine.response_times.samples),
            response_by_client={
                client_id: list(samples)
                for client_id, samples in engine.response_times.by_client.items()
            },
            dropped_actions=sum(
                len(engine.dropped[client_id])
                for client_id in self.owned_clients
            ),
            submitted_actions=sum(
                engine.clients[client_id].stats.submitted
                for client_id in self.owned_clients
            ),
            workload=self.workload.stats,
            clients=clients,
            shards=shards,
            rwset_violations=violations,
            observer=self.obs,
            dead=tuple(sorted(engine.dead)),
            detection=detection,
            quarantined=quarantined,
            detector_counts=detector_counts,
            blast_radius=blast_radius,
        )


# ---------------------------------------------------------------------------
# Replica handles: inline and subprocess, one interface
# ---------------------------------------------------------------------------
class _InlineHandle:
    """A partition replica stepped inline in the coordinator process."""

    def __init__(
        self, architecture: str, settings, partition: int, workers: int
    ) -> None:
        self.replica = PartitionReplica(architecture, settings, partition, workers)
        self._reply: Optional[BarrierReport] = None
        self._snapshot: Optional[PartitionSnapshot] = None

    def launch(self) -> Tuple[Tuple[ClientId, ...], BarrierReport]:
        self.replica.start()
        return tuple(self.replica.owned_clients), self.replica.report()

    def post_window(self, end: TimeMs, entries: List[Entry]) -> None:
        self._reply = self.replica.run_window(end, entries)

    def recv_report(self) -> BarrierReport:
        return self._reply

    def post_finish(self, t_stop: TimeMs, deadline: TimeMs) -> None:
        self._snapshot = self.replica.finish(t_stop, deadline)

    def recv_snapshot(self) -> PartitionSnapshot:
        return self._snapshot

    def close(self) -> None:
        pass


class _ProcessHandle:
    """A partition replica in its own spawned worker process.

    Commands are posted to *all* workers before any reply is awaited —
    that concurrency is the entire point of the parallel backend.
    """

    def __init__(
        self, architecture: str, settings, partition: int, workers: int, ctx
    ) -> None:
        from repro.net.worker import partition_worker_main

        parent, child = ctx.Pipe()
        self.conn = parent
        self.process = ctx.Process(
            target=partition_worker_main,
            args=(child, architecture, settings, partition, workers),
            daemon=True,
        )
        self.process.start()
        child.close()

    def _recv(self):
        try:
            message = self.conn.recv()
        except EOFError:
            self.process.join()
            raise SimulationError(
                f"partition worker exited unexpectedly "
                f"(exit code {self.process.exitcode})"
            )
        if message[0] == "error":
            raise SimulationError(
                f"partition worker failed:\n{message[1]}"
            )
        return message

    def launch(self) -> Tuple[Tuple[ClientId, ...], BarrierReport]:
        _, owned_clients, report = self._recv()
        return owned_clients, report

    def post_window(self, end: TimeMs, entries: List[Entry]) -> None:
        self.conn.send(("window", end, entries))

    def recv_report(self) -> BarrierReport:
        return self._recv()[1]

    def post_finish(self, t_stop: TimeMs, deadline: TimeMs) -> None:
        self.conn.send(("finish", t_stop, deadline))

    def recv_snapshot(self) -> PartitionSnapshot:
        return self._recv()[1]

    def close(self) -> None:
        try:
            self.conn.send(("exit",))
        except (OSError, ValueError):
            pass
        self.process.join(timeout=10)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)
        self.conn.close()


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------
def _drive(handles, settings) -> List[PartitionSnapshot]:
    """Advance every partition through the shared window schedule.

    This loop *is* the determinism argument: both backends run it with
    identical inputs, so the window ends, the bundle routing, and the
    injection order — everything that could reorder events — are
    decided in exactly one place.
    """
    lookahead = min(settings.rtt_ms / 2.0, settings.backbone_latency_ms)
    if lookahead <= 0:
        raise ConfigurationError(
            "windowed partition scheduling needs positive link latencies "
            f"(one-way rtt/2 = {settings.rtt_ms / 2.0}, backbone = "
            f"{settings.backbone_latency_ms})"
        )
    horizon = settings.workload_duration_ms + 2 * settings.move_interval_ms
    deadline = horizon + settings.drain_ms
    # Shard crashes break elastic-counter conservation by construction:
    # control messages to a dying shard are counted sent but never
    # received, and a restarted shard's counters reset.  The classic
    # engine waives the same term when shard windows are armed.
    plan = settings.fault_plan
    crash_tolerant = plan is not None and bool(plan.shard_crashes)

    launches = [handle.launch() for handle in handles]
    host_owner: Dict[ClientId, int] = {}
    for partition, (owned_clients, _) in enumerate(launches):
        for client_id in owned_clients:
            host_owner[client_id] = partition
    for shard in range(settings.shards):
        host_owner[shard_host_id(shard)] = worker_of_shard(
            shard, settings.shards, len(handles)
        )

    reports = [report for _, report in launches]
    now: TimeMs = 0.0
    while True:
        bundles = [entry for report in reports for entry in report.bundles]
        if (
            now >= horizon
            and all(report.quiescent for report in reports)
            and (
                crash_tolerant
                or sum(report.elastic_sent for report in reports)
                == sum(report.elastic_received for report in reports)
            )
        ):
            # Quiescent stop: in-flight bundles are dead (see module
            # doc).  The elastic-counter conservation term keeps the
            # stop aligned with the classic drive — a partition update
            # or region sync between partitions is invisible to every
            # local predicate while it rides a bundle.
            break
        if now >= deadline:
            break  # drain budget exhausted — classic timeout analog
        candidates = [entry[0] for entry in bundles]
        candidates.extend(
            report.next_event
            for report in reports
            if report.next_event is not None
        )
        if not candidates:
            if now < horizon:
                # Queues drained early: advance the clock to the
                # horizon, as the classic run(until=horizon) does.
                next_end = horizon
            else:
                break  # globally idle
        else:
            next_end = min(min(candidates) + lookahead, deadline)
        inboxes: List[List[Entry]] = [[] for _ in handles]
        for entry in bundles:
            inboxes[host_owner[entry[4]]].append(entry)
        for handle, inbox in zip(handles, inboxes):
            handle.post_window(next_end, inbox)
        reports = [handle.recv_report() for handle in handles]
        now = next_end

    for handle in handles:
        handle.post_finish(now, deadline)
    return [handle.recv_snapshot() for handle in handles]


# ---------------------------------------------------------------------------
# Merge: partition snapshots -> one engine-shaped view
# ---------------------------------------------------------------------------
class MergedRun:
    """Duck-typed engine view over the merged partition snapshots.

    Exposes exactly the surface :func:`repro.harness.runner.run_simulation`
    and :func:`repro.metrics.shard_audit.audit_sharded_run` consume from
    a real :class:`~repro.core.sharded.ShardedSeveEngine` at the end of
    a run — clients, meters, shard servers/states, hosts, samplers —
    assembled from picklable per-partition snapshots in deterministic
    (partition-, then id-sorted) order.
    """

    def __init__(self, snapshots: List[PartitionSnapshot], settings) -> None:
        from repro.net.stats import LatencySampler, TrafficMeter

        snapshots = sorted(snapshots, key=lambda s: s.partition)
        self.settings = settings
        meter = TrafficMeter()
        for snapshot in snapshots:
            meter.merge_from(snapshot.meter)
        self.network = SimpleNamespace(meter=meter)
        self.sim = SimpleNamespace(
            now=max(snapshot.now for snapshot in snapshots),
            dispatched=sum(snapshot.dispatched for snapshot in snapshots),
        )
        self.response_times = LatencySampler()
        for snapshot in snapshots:
            self.response_times.samples.extend(snapshot.response_samples)
            for client_id, samples in snapshot.response_by_client.items():
                self.response_times.by_client[client_id].extend(samples)

        merged_clients: Dict[ClientId, ClientSnapshot] = {}
        for snapshot in snapshots:
            merged_clients.update(snapshot.clients)
        self.clients = {
            client_id: SimpleNamespace(
                stable=merged_clients[client_id].stable,
                observations=merged_clients[client_id].observations,
                stats=SimpleNamespace(
                    submitted=merged_clients[client_id].submitted
                ),
            )
            for client_id in sorted(merged_clients)
        }
        self.client_hosts = {
            client_id: SimpleNamespace(
                cpu_time_used=merged_clients[client_id].cpu_ms
            )
            for client_id in sorted(merged_clients)
        }

        shard_snapshots = sorted(
            (shard for snapshot in snapshots for shard in snapshot.shards),
            key=lambda s: s.shard_index,
        )
        self.shard_servers = [
            SimpleNamespace(
                shard_index=shard.shard_index,
                clients=shard.client_ids,
                stats=shard.stats,
                shard_stats=shard.shard_stats,
                costs=shard.costs,
                span_gsns=shard.span_gsns,
                stripe=shard.stripe,
            )
            for shard in shard_snapshots
        ]
        #: Controller-side rebalance log.  Under the replicated control
        #: plane the controller role can move between shards, so merge
        #: every shard's log, deduped by partition version.
        seen_versions = set()
        rebalances = []
        for shard in shard_snapshots:
            for event in shard.rebalance_log:
                if event["version"] in seen_versions:
                    continue
                seen_versions.add(event["version"])
                rebalances.append(event)
        self.rebalance_events = tuple(
            sorted(rebalances, key=lambda e: e["version"])
        )
        #: Completed lease transfers (each winner logged its own).
        self.failover_events = tuple(
            sorted(
                (
                    event
                    for shard in shard_snapshots
                    for event in shard.failover_log
                ),
                key=lambda e: (e.at_ms, e.term),
            )
        )
        self.crashed_shards = {
            shard.shard_index for shard in shard_snapshots if shard.crashed
        }
        self.dead = set()
        for snapshot in snapshots:
            self.dead.update(snapshot.dead)
        self.server = self.shard_servers[0]
        self.server_hosts = {
            shard.shard_index: SimpleNamespace(cpu_time_used=shard.cpu_ms)
            for shard in shard_snapshots
        }
        self.shard_states = [shard.state for shard in shard_snapshots]
        self.state = self.shard_states[0]
        self._attached = set()
        for shard in shard_snapshots:
            self._attached.update(shard.client_ids)
        self._dropped = sum(s.dropped_actions for s in snapshots)
        self._submitted = sum(s.submitted_actions for s in snapshots)
        violations = tuple(
            _Rendered(text)
            for snapshot in snapshots
            for text in snapshot.rwset_violations
        )
        self.rwset_recorder = (
            SimpleNamespace(violations=violations) if violations else None
        )
        from repro.harness.workload import WorkloadStats

        stats = WorkloadStats()
        for snapshot in snapshots:
            stats.moves_submitted += snapshot.workload.moves_submitted
            stats.costs.extend(snapshot.workload.costs)
            stats.visible_samples.extend(snapshot.workload.visible_samples)
        self.workload_stats = stats

        # Adversary detection (docs/adversary.md): sum the per-detector
        # counters, dedupe the flag records — the same (detector, client)
        # pair can fire on several partitions (e.g. lying-rs evidence on
        # every replica applying the pushed lie) — and union quarantines.
        # ``detector_counts`` stays None on honest runs so the runner's
        # RunResult keeps its dataclass defaults (the null-plan contract).
        self.detector_counts = None
        self.detection_records: Tuple = ()
        self.quarantined: set = set()
        self.blast_radius = None
        if any(s.detector_counts is not None for s in snapshots):
            counts: Dict[str, int] = {}
            seen = set()
            records = []
            # Per-client max: only the cheater's home partition admitted
            # its submissions, the rest report a zero footprint.
            blast: Dict[ClientId, int] = {}
            for snapshot in snapshots:
                for name, count in (snapshot.detector_counts or {}).items():
                    counts[name] = counts.get(name, 0) + count
                for record in snapshot.detection:
                    key = (record.detector, record.client_id)
                    if key not in seen:
                        seen.add(key)
                        records.append(record)
                self.quarantined.update(snapshot.quarantined)
                for client_id, footprint in (
                    snapshot.blast_radius or {}
                ).items():
                    blast[client_id] = max(
                        blast.get(client_id, 0), footprint
                    )
            self.detector_counts = counts
            self.detection_records = tuple(records)
            self.blast_radius = blast

    @property
    def drop_percent(self) -> float:
        if self._submitted == 0:
            return 0.0
        return 100.0 * self._dropped / self._submitted

    def live_client_ids(self) -> List[ClientId]:
        return [
            client_id
            for client_id in self.clients
            if client_id in self._attached
            and client_id not in self.quarantined
            and client_id not in self.dead
        ]

    def span_gsn_map(self) -> Dict:
        merged: Dict = {}
        for server in self.shard_servers:
            merged.update(server.span_gsns)
        return merged


# ---------------------------------------------------------------------------
# Entry points (called from the harness runner)
# ---------------------------------------------------------------------------
def run_partitioned(
    architecture: str,
    settings,
    *,
    parallel: bool,
    obs=None,
) -> Tuple[MergedRun, SimpleNamespace]:
    """Run a sharded deployment through the windowed scheduler.

    Returns ``(merged_engine_view, workload_view)`` for the runner's
    shared measurement pipeline.  ``parallel=False`` steps the replicas
    inline (the in-process backend's W > 1 mode); ``parallel=True``
    spawns one worker process per partition.  Per-replica observer
    telemetry is merged into ``obs`` when one is attached.
    """
    workers = resolve_workers(settings)
    if settings.shards < 2 or workers < 2:
        raise ConfigurationError(
            "run_partitioned needs shards > 1 and workers > 1 "
            f"(got shards={settings.shards}, workers={workers})"
        )
    if parallel:
        ctx = spawn_context()
        handles: list = [
            _ProcessHandle(architecture, settings, partition, workers, ctx)
            for partition in range(workers)
        ]
    else:
        handles = [
            _InlineHandle(architecture, settings, partition, workers)
            for partition in range(workers)
        ]
    try:
        snapshots = _drive(handles, settings)
    finally:
        for handle in handles:
            handle.close()
    merged = MergedRun(snapshots, settings)
    if obs is not None:
        for snapshot in snapshots:
            if snapshot.observer is not None:
                obs.merge_from(snapshot.observer)
    return merged, SimpleNamespace(stats=merged.workload_stats)

