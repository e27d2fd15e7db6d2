"""SEVE: the engine facade.

:class:`SeveEngine` assembles a complete runnable system — simulator,
star network, server and client hosts, the authoritative state, one
:class:`~repro.core.client.ProtocolClient` per player, and the server
variant selected by :class:`SeveConfig.mode`:

``basic``
    The first action-based protocol (Algorithms 1-3): a pure serializer
    server that eagerly streams every action to every client.  Strongly
    consistent, response in one round trip, no scalability (this is
    also the computational shape of the Broadcast baseline).
``incomplete``
    The Incomplete World Model (Algorithms 4-6): reactive closure
    replies; clients evaluate only actions that affect them.
``first-bound``
    Adds the First Bound Model: proactive pushes every ω·RTT with the
    Equation (1) predicate.  This is the "naive SEVE" of Figure 8 —
    no chain breaking, so dense crowds overload clients.
``seve``
    The full system: First Bound pushes + Information Bound dropping.

Usage::

    engine = SeveEngine(world, num_clients=8, config=SeveConfig())
    engine.start(stop_at=30_000)
    engine.submit(client_id, action)         # typically via a workload
    engine.sim.run(until=35_000)
    print(engine.response_times.summary())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.sanitizer import (
    SanitizerRecorder,
    resolve_mode as resolve_sanitizer_mode,
    wrap_store as wrap_sanitized,
)
from repro.core.action import ActionId
from repro.core.chassis import EngineChassis, TestbedConfig
from repro.core.client import ClientConfig, ProtocolClient
from repro.core.first_bound import FirstBoundPredicate
from repro.core.info_bound import InformationBound
from repro.core.server_basic import BasicServer
from repro.core.server_incomplete import IncompleteWorldServer, ServerCosts
from repro.errors import ConfigurationError
from repro.metrics.audit import AuditLog
from repro.metrics.consistency import check_uniform
from repro.net.host import Host
from repro.state.store import ObjectStore
from repro.state.versioned import VersionedStore
from repro.types import SERVER_ID, ClientId, TimeMs
from repro.world.base import World

#: The protocol variants the engine can assemble.
MODES = ("basic", "incomplete", "first-bound", "seve", "hybrid")


@dataclass(frozen=True)
class SeveConfig(TestbedConfig):
    """Engine configuration: the shared testbed (network, evaluation
    overhead, fault plan and its reliability trio, observer) plus what
    only the SEVE protocol has (defaults follow Table I of the paper)."""

    mode: str = "seve"
    omega: float = 0.5
    tick_ms: TimeMs = 100.0
    #: Information Bound threshold in world units (Table I: 1.5 x
    #: avatar visibility = 45).
    threshold: float = 45.0
    #: What happens to chain-breaking actions: "drop" (Algorithm 7) or
    #: "delay" (the Section III-E alternative — defer so the conflict
    #: set can commit, drop only after ``max_delay_ticks``).
    info_bound_policy: str = "drop"
    max_delay_ticks: int = 3
    use_velocity_culling: bool = False
    #: Fault-tolerant completions (every client reports every action).
    fault_tolerant: bool = False
    #: Ship the full initial world state to every client replica (the
    #: login-time download games perform).  Off by default: incomplete
    #: replicas start with just their own avatar and grow through blind
    #: writes, which exercises the protocol's seeding path.
    seed_full_state: bool = False
    #: Attach a server-side audit log with cheat detection (Section
    #: II-B's "servers can also log MMO statistics to detect cheating").
    enable_audit: bool = False
    #: Relay-group size for the hybrid mode (§VII future work): server
    #: egress per group tends toward 1/group_size.
    hybrid_group_size: int = 4
    #: One-way latency (ms) of the shard-to-shard backbone links
    #: (:class:`repro.core.sharded.ShardedSeveEngine`); ignored by the
    #: single-serializer engines.  Also bounds the windowed partition
    #: scheduler's lookahead (docs/parallel.md).
    backbone_latency_ms: float = 1.0
    costs: ServerCosts = field(default_factory=ServerCosts)
    #: Retained committed versions per object on the server (``None`` =
    #: unbounded, which the Theorem 1 consistency checks rely on; bound
    #: it for long memory-sensitive runs).
    history_limit: Optional[int] = None
    #: Record every applied stream entry into ``client.observations``
    #: (see :class:`repro.core.client.ClientConfig.record_observations`)
    #: — input to the sharded consistency audit and differential tests.
    #: Pure bookkeeping; never changes scheduling or results.
    record_observations: bool = False
    #: Dynamic RW-set sanitizer (docs/static_analysis.md): check every
    #: store access during ``Action.apply`` on client replicas against
    #: the action's declared RS/WS.  ``"raise"`` aborts on the first
    #: violation, ``"report"`` collects them into the run result,
    #: ``"off"`` disables, and ``None`` defers to the process-wide
    #: ambient mode (:func:`repro.analysis.sanitizer.resolve_mode`).
    rwset_sanitizer: Optional[str] = None
    #: Adversarial client models (docs/adversary.md): a
    #: :class:`repro.adversary.AdversaryPlan` assigning cheat models to
    #: client ids.  ``None`` or a null plan keeps every client honest
    #: and takes the identical code path (no detector is constructed);
    #: a non-null plan substitutes seeded cheating clients and arms the
    #: server-side detection/quarantine layer.  (Its type is checked
    #: where a run is declared: ``SimulationSettings.__post_init__``.)
    adversary: Optional[object] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown mode {self.mode!r}; expected one of {MODES}"
            )
        if self.rwset_sanitizer not in (None, "off", "report", "raise"):
            raise ConfigurationError(
                f"unknown rwset_sanitizer {self.rwset_sanitizer!r}; "
                "expected None, 'off', 'report', or 'raise'"
            )


class SeveEngine(EngineChassis):
    """A fully wired SEVE system over a :class:`World`, assembled on the
    :class:`~repro.core.chassis.EngineChassis` every architecture shares."""

    def __init__(
        self,
        world: World,
        num_clients: int,
        config: Optional[SeveConfig] = None,
        *,
        interests: Optional[Dict[ClientId, frozenset[str]]] = None,
    ) -> None:
        super().__init__(world, num_clients, config or SeveConfig())
        #: Actions dropped by the Information Bound Model, per client.
        self.dropped: Dict[ClientId, List[ActionId]] = {}
        sanitizer_mode = resolve_sanitizer_mode(self.config.rwset_sanitizer)
        #: Shared violation sink for every sanitized client store
        #: (``None`` when the sanitizer is off — the common case).
        self.rwset_recorder = (
            SanitizerRecorder(mode=sanitizer_mode)
            if sanitizer_mode != "off"
            else None
        )
        adversary = self.config.adversary
        #: Whether a non-null adversary plan is armed this run.
        self.adversary_active = adversary is not None and not adversary.is_null
        #: Clients evicted by the cheat-detection layer.
        self.quarantined: set[ClientId] = set()
        #: Hook fired after each quarantine eviction (the harness stops
        #: the cheater's workload generator here).
        self.on_quarantine: Optional[Callable[[ClientId], None]] = None
        #: Shared :class:`~repro.core.detection.CheatDetector`, or
        #: ``None`` for honest runs (the byte-identical default path).
        self.detector = None
        if self.adversary_active:
            from repro.core.detection import CheatDetector

            if self.rwset_recorder is None:
                # The lying-RS "evidence" detector reads the runtime
                # sanitizer's attributed violations, so adversarial runs
                # force at least report-mode sanitization of client
                # replicas even when the run didn't ask for it.
                self.rwset_recorder = SanitizerRecorder(mode="report")
            self.rwset_recorder.on_violation = self._absorb_cheat_violation
            self.detector = CheatDetector(
                owned_of=self.world.avatar_of,
                clock=lambda: self.sim.now,
                obs=self.obs,
                on_quarantine=self._quarantine,
            )
        self._build_server()
        for client_id in range(num_clients):
            self._attach_client(
                client_id,
                (interests or {}).get(client_id),
            )
        self._stop_at: Optional[TimeMs] = None

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _build_server(self) -> None:
        config = self.config
        self.state = VersionedStore(
            self.world.initial_objects(), history_limit=config.history_limit
        )
        self.audit = None
        self.predicate = self._make_predicate()
        self.info_bound = self._make_info_bound()
        if config.mode == "basic":
            self.server: object = BasicServer(
                self.sim,
                self.network,
                self.server_host,
                eager=True,
                timestamp_cost_ms=config.costs.timestamp_ms,
                liveness=config.liveness,
                obs=self.obs,
                detector=self.detector,
            )
            return
        server_kwargs = dict(
            predicate=self.predicate,
            info_bound=self.info_bound,
            tick_ms=config.tick_ms,
            costs=config.costs,
            avatar_of=self.world.avatar_of,
            liveness=config.liveness,
            obs=self.obs,
            detector=self.detector,
        )
        if config.mode == "hybrid":
            from repro.core.hybrid import HybridRelayServer

            plan = config.fault_plan
            self.server = HybridRelayServer(
                self.sim,
                self.network,
                self.server_host,
                self.state,
                group_size=config.hybrid_group_size,
                bundling=not (plan is not None and plan.crashes),
                **server_kwargs,
            )
        else:
            self.server = IncompleteWorldServer(
                self.sim,
                self.network,
                self.server_host,
                self.state,
                **server_kwargs,
            )
        if config.enable_audit:
            self.audit = self._make_audit()
            self.server.on_commit = self._make_audit_hook(self.audit)

    def _make_predicate(self) -> Optional[FirstBoundPredicate]:
        """The Equation (1) push predicate of the push modes."""
        config = self.config
        if config.mode not in ("first-bound", "seve", "hybrid"):
            return None
        return FirstBoundPredicate(
            max_speed=self.world.max_speed,
            rtt_ms=config.rtt_ms,
            omega=config.omega,
            use_velocity_culling=config.use_velocity_culling,
        )

    def _make_info_bound(self) -> Optional[InformationBound]:
        """A fresh Information Bound (one per serializer) in the modes
        that drop chain-breaking actions."""
        config = self.config
        if config.mode not in ("seve", "hybrid"):
            return None
        return InformationBound(
            config.threshold,
            policy=config.info_bound_policy,
            max_delay_ticks=config.max_delay_ticks,
        )

    def _make_audit(self) -> AuditLog:
        return AuditLog(max_speed=self.world.max_speed or None)

    def _make_audit_hook(self, audit):
        """The ``on_commit`` hook feeding one serializer's audit log."""
        return lambda pos, client_id, values: audit.record(
            pos, client_id, self.sim.now, values
        )

    def _client_config(
        self, client_id: ClientId, interests: Optional[frozenset[str]]
    ) -> ClientConfig:
        """Build a client's protocol configuration (hook: the sharded
        engine relaxes stream strictness for cross-shard re-attachment)."""
        incomplete = self.config.mode != "basic"
        return ClientConfig(
            send_completions=incomplete,
            report_all_completions=incomplete and self.config.fault_tolerant,
            eval_overhead_ms=self.config.eval_overhead_ms,
            interests=interests,
            strict_stream=self.faults is None,
            retry=self.config.retry,
            retry_seed=self.retry_seed,
            record_observations=self.config.record_observations,
        )

    def _home_server(self, client_id: ClientId):
        """The serializer a client initially attaches to, as
        ``(server, host_id)`` (hook: the sharded engine assigns the
        shard owning the client's spawn region)."""
        return self.server, SERVER_ID

    def _attach_client(
        self, client_id: ClientId, interests: Optional[frozenset[str]]
    ) -> None:
        host = Host(self.sim, client_id, obs=self.obs)
        incomplete = self.config.mode != "basic"
        client_config = self._client_config(client_id, interests)
        # Basic-mode clients replicate the full initial state; incomplete
        # clients start from what they can see — their own avatar — and
        # grow their replica from server blind writes (unless the
        # engine is configured to ship the login-time world download).
        # Static geometry (walls) is known out of band in both cases.
        if incomplete and not self.config.seed_full_state:
            stable = self._partial_initial_state(client_id)
        else:
            stable = self.state.snapshot()
        model = (
            self.config.adversary.model_of(client_id)
            if self.adversary_active
            else None
        )
        if self.rwset_recorder is not None and model is None:
            # The client snapshots this store for its optimistic replica,
            # and SanitizedStore.snapshot stays sanitized — so one wrap
            # here covers ζ_CS and ζ_CO (and, via inheritance, every
            # shard-attached client of the sharded engine too).  Cheater
            # replicas stay unwrapped: a cheater won't sanitize itself,
            # and the lying-RS evidence must come from its *victims*.
            stable = wrap_sanitized(
                stable, self.rwset_recorder, label=f"client{client_id}"
            )
        server, server_id = self._home_server(client_id)
        client_class: type = ProtocolClient
        extra_kwargs: dict = {}
        if model is not None:
            from repro.adversary import cheat_class

            client_class = cheat_class(model)
            extra_kwargs["adversary_seed"] = self.config.adversary.seed
        client = client_class(
            self.sim,
            self.network,
            host,
            client_id,
            stable,
            config=client_config,
            server_id=server_id,
            obs=self.obs,
            **extra_kwargs,
        )
        self._adopt(client)
        self.dropped[client_id] = []
        client.on_aborted = self.dropped[client_id].append
        server.attach_client(
            client_id,
            radius=self.world.client_radius(client_id),
            interests=interests,
        )

    def _partial_initial_state(self, client_id: ClientId):
        store = ObjectStore()
        avatar_oid = self.world.avatar_of(client_id)
        if avatar_oid is not None and avatar_oid in self.state:
            store.put(self.state.get(avatar_oid).copy())
        return store

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def _servers(self) -> list:
        """Every serializer of the deployment (hook: the sharded engine
        returns all its shards)."""
        return [self.server]

    def _driven_servers(self) -> list:
        """The servers whose periodic processes this engine runs (hook:
        the sharded engine returns the shards of its slice)."""
        return self._servers()

    def start(self, *, stop_at: Optional[TimeMs] = None) -> None:
        """Install the driven servers' periodic processes (liveness
        sweeps for basic mode; validation/push/liveness for the others)
        and, when liveness is configured, the owned clients' heartbeats."""
        self._stop_at = stop_at
        for server in self._driven_servers():
            server.start(stop_at=stop_at)
        self._start_heartbeats(stop_at)

    def _quarantine(self, client_id: ClientId) -> None:
        """Detector verdict: evict ``client_id`` from every serializer.

        Reuses the PR 2 eviction machinery (detach + channel reset +
        orphan aborts), so a quarantined cheater looks to the rest of
        the system exactly like a crashed client the liveness sweep
        removed — honest clients' entries keep committing via the
        fault-tolerant completion path.  Evidence about a cheater another
        partition owns is recorded here; its eviction happens on its
        home replica.
        """
        if client_id in self.quarantined:
            return
        if client_id not in self.owned_clients:
            return
        self.quarantined.add(client_id)
        for server in self._servers():
            server.evict_client(client_id)
        self._stop_heartbeat(client_id)
        if self.on_quarantine is not None:
            self.on_quarantine(client_id)

    def detection_summary(self) -> Dict[str, object]:
        """The adversary-detection fields of a run result
        (docs/adversary.md).  Empty on honest runs, so the result keeps
        its dataclass defaults on the byte-identical null path."""
        detector = self.detector
        if detector is None:
            return {}
        return {
            "detection_records": tuple(detector.records),
            "detector_counts": dict(detector.counts),
            "clients_quarantined": tuple(sorted(self.quarantined)),
            "blast_radius": dict(detector.blast_radius),
        }

    def _absorb_cheat_violation(self, violation) -> bool:
        """Sanitizer hook: route a planned cheater's RW-set violations
        to the ``evidence`` detector instead of the run's violation
        report (returning True absorbs them — no report entry, and no
        raise under the ambient raise-mode sanitizer).  Violations by
        honest clients' actions fall through untouched."""
        plan = self.config.adversary
        client_id = violation.client_id
        if (
            client_id is None
            or plan is None
            or plan.model_of(client_id) is None
        ):
            return False
        if self.detector is not None:
            self.detector.flag(
                "evidence",
                client_id,
                action=violation.action,
                detail=violation.render(),
            )
        return True

    def mark_alive(self, client_id: ClientId) -> None:
        """The harness reconnected this client.

        The server's delivery bookkeeping for the client is stale either
        way: if the liveness sweep already evicted it, it is detached;
        if it reconnected *before* the sweep fired, everything pushed
        into the crash window was dropped on the wire while the server
        recorded it as held (sent(a) marks, known-values entries).  So
        always resync — detach if still attached, then re-attach from
        scratch; closures rebuild the replica exactly as for an evicted
        rejoiner, and the client's position dedup absorbs redeliveries.
        """
        self.dead.discard(client_id)
        if self.config.liveness is not None:
            self._install_heartbeat(client_id)
        if client_id in self.server.clients:
            self.server.detach_client(client_id)
        self.server.attach_client(
            client_id,
            radius=self.world.client_radius(client_id),
            interests=self.clients[client_id].config.interests,
        )

    def live_client_ids(self) -> list[ClientId]:
        """Clients that are neither crashed nor evicted by a server —
        the population over which end-of-run consistency is asserted."""
        return [
            client_id
            for client_id in self.clients
            if client_id not in self.dead
            and client_id not in self.quarantined
            and any(client_id in server.clients for server in self._servers())
        ]

    def client(self, client_id: ClientId) -> ProtocolClient:
        """The protocol client for ``client_id``."""
        return self.clients[client_id]

    def planning_store(self, client_id: ClientId):
        """The replica a client plans its next action from: ζ_CO.

        (Uniform accessor shared with the baseline engines so the
        workload generator can drive any architecture.)
        """
        return self.clients[client_id].optimistic

    def run_to_quiescence(self, max_extra_ms: TimeMs = 600_000.0) -> None:
        """Drain all in-flight work after the workload stops submitting.

        Stops the server's periodic processes once every pending action
        has been confirmed or aborted, then drains remaining events.
        """
        deadline = self.sim.now + max_extra_ms
        while self.sim.now < deadline:
            if not self.sim.step():
                break
            if self._quiescent():
                break
        self.stop_and_drain(deadline)

    def stop_and_drain(self, deadline: TimeMs) -> None:
        """End of run: stop the driven servers' periodic processes and
        the heartbeats, then dispatch one final millisecond (capped at
        ``deadline``) so same-instant completions land."""
        for server in self._driven_servers():
            server.stop()
        self._stop_heartbeats()
        self.sim.run(until=min(self.sim.now + 1.0, deadline))

    def _quiescent(self) -> bool:
        if any(
            client.pending_count
            for client_id, client in self.clients.items()
            if client_id not in self.dead and client_id not in self.quarantined
        ):
            return False
        if self.config.liveness is not None and any(
            client_id in self.server.clients for client_id in self.dead
        ):
            # A crashed client still attached keeps the run live until
            # the server's sweep presumes it dead (Section III-C).
            return False
        return self.server.uncommitted_count == 0

    # ------------------------------------------------------------------
    # Results: the measured surface, where it is real for SEVE
    # ------------------------------------------------------------------
    @property
    def clients_evicted(self) -> int:
        """Clients the serializers' liveness sweeps presumed dead."""
        return sum(server.stats.clients_evicted for server in self._servers())

    @property
    def closure_cpu_ms(self) -> float:
        """Simulated CPU-ms the serializers spent computing closures."""
        return sum(server.closure_cpu_ms for server in self._servers())

    @property
    def rwset_violations(self) -> tuple:
        """Rendered violations the RW-set sanitizer collected."""
        if self.rwset_recorder is None:
            return ()
        return tuple(violation.render() for violation in self.rwset_recorder.violations)

    def consistency_report(self, replicas: Dict[ClientId, ObjectStore]):
        if self.config.mode == "basic":
            # Full replication: no advancing server state; consistency
            # means all replicas are identical.
            return check_uniform(replicas), None
        return super().consistency_report(replicas)

    @property
    def total_dropped(self) -> int:
        """Actions dropped by the Information Bound Model."""
        return sum(len(ids) for ids in self.dropped.values())

    @property
    def drop_percent(self) -> float:
        """Dropped actions as a percentage of all submissions."""
        submitted = sum(client.stats.submitted for client in self.clients.values())
        if submitted == 0:
            return 0.0
        return 100.0 * self.total_dropped / submitted

    def __repr__(self) -> str:
        return (
            f"SeveEngine(mode={self.config.mode!r}, "
            f"clients={len(self.clients)}, t={self.sim.now:.0f}ms)"
        )
