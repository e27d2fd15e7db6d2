"""The engine contract: one chassis, one client shell, one measured surface.

The paper compares its architectures on *one* testbed; they differ in
who evaluates and who receives, not in the machines underneath.  This
module is that testbed, written once:

:class:`EngineChassis`
    What every engine — :class:`~repro.core.engine.SeveEngine`, the
    sharded engine, every :class:`~repro.baselines.common.BaselineEngine`
    — is assembled on: the simulator, the fault injector (absent for a
    null plan), the star network, the server host, the response-time
    sampler, the crash/heartbeat bookkeeping, ``submit`` and ``run``.
    It also *declares* the surface :func:`repro.harness.runner.run_simulation`
    measures a finished run through, each item with its neutral default;
    an engine overrides the items that are real for it, and
    :class:`repro.net.backend.MergedRun` carries the same names over
    merged partition snapshots.  What genuinely differs between engines
    stays an override: ``start``/``stop``, ``mark_alive``,
    ``_quiescent`` and each side's ``run_to_quiescence`` drain rule.
:class:`ClientShell`
    What every client wears: its address and CPU, its stable replica,
    the submit-time table response times are measured from, the
    end-to-end resubmission timers with their private jitter RNG, the
    heartbeat, the action-id mint, one "send this submission and arm
    its retry" and one "my action is confirmed" path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.action import Action, ActionId
from repro.core.messages import Heartbeat, SubmitAction, wire_size
from repro.errors import ConfigurationError, ProtocolError
from repro.metrics.consistency import ConsistencyChecker
from repro.net.faults import (
    RETRY_MAX_ATTEMPTS,
    FaultInjector,
    FaultPlan,
    LivenessConfig,
    ReliabilityConfig,
    RetryPolicy,
)
from repro.net.host import Host
from repro.net.network import Network
from repro.net.simulator import Event, Simulator
from repro.net.stats import LatencySampler
from repro.state.store import ObjectStore
from repro.types import SERVER_ID, ClientId, TimeMs
from repro.world.base import World


@dataclass(frozen=True)
class TestbedConfig:
    """What every architecture's testbed is parameterised by — the one
    declaration of the emulated network and the evaluation overhead
    (Table I; the run-level settings *name* these defaults).  The
    baselines take it as is (:data:`repro.baselines.common.BaselineConfig`),
    :class:`repro.core.engine.SeveConfig` extends it.
    """

    __test__ = False  # the paper's testbed, not a pytest class

    #: Average client–server round-trip latency (Table I: 238 ms).
    rtt_ms: TimeMs = 238.0
    #: Per-client link bandwidth (Table I: 100 Kbps); ``None`` = unbounded.
    bandwidth_bps: Optional[float] = 100_000.0
    #: Fixed synchronization/bookkeeping cost added to every full action
    #: evaluation: the paper measures ~60 ms per 32-action round on top
    #: of 32 x 7.44 ms, i.e. ~1.9 ms/action — this is what puts the
    #: Figure 6 knee at 30-32 clients.
    eval_overhead_ms: float = 1.9
    #: Deterministic fault injection (``None`` or a null plan keeps the
    #: network perfectly reliable and takes the identical code path).
    fault_plan: Optional[FaultPlan] = None
    #: ARQ transport restoring reliable FIFO delivery over a lossy plan.
    reliability: Optional[ReliabilityConfig] = None
    #: End-to-end client resubmission of unanswered actions.
    retry: Optional[RetryPolicy] = None
    #: Server-side heartbeat eviction (Section III-C).
    liveness: Optional[LivenessConfig] = None
    #: Optional :class:`repro.obs.Observer` threaded through every
    #: component (simulator, network, hosts, server, clients).  Excluded
    #: from equality/repr: telemetry is not part of the experiment
    #: identity, and observation never changes results (the differential
    #: tests pin this).
    obs: Optional[object] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.rtt_ms < 0:
            raise ConfigurationError("rtt_ms must be >= 0")


@dataclass
class ClientStats:
    """Per-client protocol counters (read by the experiment harness)."""

    submitted: int = 0
    confirmed: int = 0
    aborted: int = 0
    reconciliations: int = 0
    stable_evaluations: int = 0
    blind_writes_applied: int = 0
    mismatches: int = 0
    #: Duplicate stream deliveries skipped (non-strict mode only).
    duplicates_skipped: int = 0
    #: Application-level resubmissions of unanswered own actions.
    retransmissions: int = 0
    #: Own actions given up on after ``RETRY_MAX_ATTEMPTS`` resubmissions.
    retries_exhausted: int = 0
    #: Own echoes that arrived for actions no longer pending, or whose
    #: older pending siblings' echoes were lost (non-strict mode only).
    own_echoes_lost: int = 0


class ClientShell:
    """Address, CPU, stable replica and reliability of one client.

    Concrete clients add their protocol on top and end their own
    constructor with ``network.register(client_id, handler)``.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host: Host,
        client_id: ClientId,
        stable_store: ObjectStore,
        *,
        server_id: ClientId = SERVER_ID,
        retry: Optional[RetryPolicy] = None,
        retry_seed: int = 0,
        obs=None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.host = host
        self.client_id = client_id
        #: The serializer this client currently speaks to.  Always
        #: :data:`SERVER_ID` in single-server deployments; a sharded
        #: deployment re-points it at handoff time.
        self.server_id = server_id
        #: The replica the authoritative stream advances (ζ_CS; a
        #: baseline client's only replica).
        self.stable = stable_store
        #: End-to-end resubmission of unanswered own actions (``None``
        #: disables retries; the server absorbs resubmissions by id).
        self.retry = retry
        #: Optional :class:`repro.obs.Observer` (read-only telemetry).
        self._obs = obs
        self.stats = ClientStats()
        self._next_seq = 0
        self._submit_times: Dict[ActionId, TimeMs] = {}
        self._retry_timers: Dict[ActionId, Event] = {}
        # Private jitter stream: the seed is mixed with the client id so
        # clients draw independently, and never touches the fault RNG.
        self._retry_rng = random.Random((retry_seed << 17) ^ (client_id * 0x9E3779B1))
        #: Hook: own action confirmed; args (action_id, response_ms).
        self.on_confirmed: Optional[Callable[[ActionId, TimeMs], None]] = None

    def next_action_id(self) -> ActionId:
        """Mint the id for the client's next action."""
        action_id = ActionId(self.client_id, self._next_seq)
        self._next_seq += 1
        return action_id

    def note_submitted(self, action: Action) -> None:
        """Count a freshly created own action and start its response
        clock."""
        if action.client_id != self.client_id:
            raise ProtocolError(
                f"client {self.client_id} cannot submit {action.action_id}"
            )
        self.stats.submitted += 1
        self._submit_times[action.action_id] = self.sim.now

    def note_confirmed(self, action_id: ActionId) -> None:
        """Own action ``action_id`` reached its authoritative outcome:
        stop its response clock and report the time, once.

        The retry timer is left alone — one that fires for an action no
        longer clocked does nothing; a caller that wants the event gone
        calls :meth:`_cancel_retry` as well."""
        submitted_at = self._submit_times.pop(action_id, None)
        if submitted_at is not None and self.on_confirmed is not None:
            self.on_confirmed(action_id, self.sim.now - submitted_at)

    # -- reliability: resubmission and heartbeats (Section III-C) ----------
    def _send_submission(self, action: Action, attempt: int = 0) -> None:
        """Send ``action`` to the serializer and arm its retry timer."""
        message = SubmitAction(action)
        self.network.send(self.client_id, self.server_id, message, wire_size(message))
        if self.retry is not None:
            self._arm_retry(action, attempt)

    def _arm_retry(self, action: Action, attempt: int) -> None:
        if attempt >= RETRY_MAX_ATTEMPTS:
            self.stats.retries_exhausted += 1
            return
        delay = self.retry.delay(attempt, self._retry_rng)
        self._retry_timers[action.action_id] = self.sim.schedule(
            delay, lambda: self._retry_fire(action, attempt)
        )

    def _retry_fire(self, action: Action, attempt: int) -> None:
        action_id = action.action_id
        self._retry_timers.pop(action_id, None)
        if action_id not in self._submit_times:
            return  # confirmed or aborted while the timer ran
        if not self.network.is_registered(self.client_id):
            return  # we crashed; a reconnect restarts nothing old
        self.stats.retransmissions += 1
        if self._obs is not None:
            self._obs.on_client_retry(self.client_id, self.sim.now, attempt + 1)
        self._send_submission(action, attempt + 1)

    def _cancel_retry(self, action_id: ActionId) -> None:
        timer = self._retry_timers.pop(action_id, None)
        if timer is not None:
            timer.cancel()

    def send_heartbeat(self) -> None:
        """One liveness beacon to the server (deliberately unreliable)."""
        if not self.network.is_registered(self.client_id):
            return
        message = Heartbeat(self.client_id)
        self.network.send(
            self.client_id, self.server_id, message, wire_size(message), reliable=False
        )


class EngineChassis:
    """The testbed under every architecture, and the surface a finished
    run is measured through.

    ``config`` is the engine's own configuration, a
    :class:`TestbedConfig` or an extension of it.
    """

    def __init__(self, world: World, num_clients: int, config: TestbedConfig) -> None:
        if num_clients < 0:
            raise ConfigurationError(f"num_clients must be >= 0, got {num_clients}")
        self.world = world
        self.config = config
        self.obs = config.obs
        self.sim = Simulator(obs=self.obs)
        plan = config.fault_plan
        self.faults = (
            FaultInjector(plan) if plan is not None and not plan.is_null else None
        )
        #: Seed material of every client's retry-jitter RNG.
        self.retry_seed = plan.seed if plan is not None else 0
        self.network = Network(
            self.sim,
            rtt_ms=config.rtt_ms,
            bandwidth_bps=config.bandwidth_bps,
            faults=self.faults,
            reliability=config.reliability,
            obs=self.obs,
        )
        self.server_host = Host(self.sim, SERVER_ID, obs=self.obs)
        #: Serializer hosts by shard index (shard 0's host id *is*
        #: :data:`SERVER_ID`; only sharded deployments add more).
        self.server_hosts: Dict[int, Host] = {0: self.server_host}
        self.response_times = LatencySampler()
        self.clients: Dict[ClientId, ClientShell] = {}
        #: The clients this engine instance drives, in id order: all of
        #: them, unless a partition replica (:mod:`repro.net.backend`)
        #: narrows the slice.  Heartbeats, move generation, quiescence
        #: and quarantine evictions cover the slice only.
        self.owned_clients: List[ClientId] = []
        #: Clients currently presumed crashed (driven by the harness).
        self.dead: set[ClientId] = set()
        self._heartbeat_stoppers: Dict[ClientId, Callable[[], None]] = {}

    def _adopt(self, client: ClientShell) -> None:
        """Enrol a freshly built client: its response times feed the
        engine's sampler, and the engine drives it."""
        client_id = client.client_id

        def record_response(action_id: ActionId, response_ms: TimeMs) -> None:
            self.response_times.record(response_ms, client_id)

        client.on_confirmed = record_response
        self.clients[client_id] = client
        self.owned_clients.append(client_id)

    # ------------------------------------------------------------------
    # Crash and heartbeat bookkeeping
    # ------------------------------------------------------------------
    def _install_heartbeat(
        self, client_id: ClientId, *, stop_at: Optional[TimeMs] = None
    ) -> None:
        client = self.clients[client_id]

        def beat() -> None:
            if client_id not in self.dead:
                client.send_heartbeat()

        self._heartbeat_stoppers[client_id] = self.sim.call_every(
            self.config.liveness.heartbeat_interval_ms, beat, stop_at=stop_at
        )

    def _start_heartbeats(self, stop_at: Optional[TimeMs]) -> None:
        """The owned clients' heartbeats, when liveness is configured."""
        if self.config.liveness is not None:
            for client_id in self.owned_clients:
                self._install_heartbeat(client_id, stop_at=stop_at)

    def _stop_heartbeat(self, client_id: ClientId) -> None:
        stopper = self._heartbeat_stoppers.pop(client_id, None)
        if stopper is not None:
            stopper()

    def _stop_heartbeats(self) -> None:
        for stopper in list(self._heartbeat_stoppers.values()):
            stopper()
        self._heartbeat_stoppers.clear()

    def mark_dead(self, client_id: ClientId) -> None:
        """The harness crashed this client: stop its heartbeat and
        exclude it from quiescence checks."""
        self.dead.add(client_id)
        self._stop_heartbeat(client_id)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def submit(self, client_id: ClientId, action: Action) -> None:
        """Submit an action on behalf of ``client_id``."""
        self.clients[client_id].submit(action)

    def run(self, until: Optional[TimeMs] = None) -> None:
        """Advance the simulation (see :meth:`Simulator.run`)."""
        self.sim.run(until=until)

    # ------------------------------------------------------------------
    # The measured surface: everything ``run_simulation`` reads from a
    # finished run, with the value an architecture that has no such
    # thing reports.  ``clients``, ``response_times``, ``server_hosts``
    # and ``live_client_ids()`` belong to it too.
    # ------------------------------------------------------------------
    #: Server-side cheat detector (``None``: every client is honest).
    detector = None
    #: Clients the server's liveness sweep presumed dead.
    clients_evicted = 0
    #: Simulated CPU-ms the serializers spent on transitive closures.
    closure_cpu_ms = 0.0
    #: Submissions dropped by the Information Bound, in percent.
    drop_percent = 0.0
    #: Per-shard summary rows (``None``: one serializer).
    shard_rows: Optional[list] = None
    #: Rendered RW-set sanitizer violations.
    rwset_violations: tuple = ()
    #: The elastic controller's committed partition changes.
    rebalance_events: tuple = ()
    #: Completed gsn-lease transfers.
    failover_events: tuple = ()

    @property
    def meter(self):
        """The run's :class:`~repro.net.stats.TrafficMeter`."""
        return self.network.meter

    @property
    def virtual_ms(self) -> TimeMs:
        """Virtual time the run has reached."""
        return self.sim.now

    @property
    def events(self) -> int:
        """Simulator events dispatched."""
        return self.sim.dispatched

    @property
    def client_hosts(self) -> Dict[ClientId, Host]:
        """Every client's CPU, by client id."""
        return {client_id: client.host for client_id, client in self.clients.items()}

    def detection_summary(self) -> Dict[str, object]:
        """The adversary-detection fields of a run result; empty on
        honest runs, so the result keeps its dataclass defaults."""
        return {}

    def consistency_report(self, replicas: Dict[ClientId, ObjectStore]):
        """The Theorem 1 verdict over ``replicas`` (stable replica by
        client id), as ``(ConsistencyReport, cross-shard audit or None)``:
        every held value must be a committed version in the server
        store's history."""
        return ConsistencyChecker(self.state).check_all(replicas), None
