"""The engine contract: one chassis, one client shell, one server shell,
one measured surface.

The paper compares its architectures on *one* testbed; they differ in
who evaluates and who receives, not in the machines underneath.  This
module is that testbed, written once:

:class:`EngineChassis`
    What every engine — :class:`~repro.core.engine.SeveEngine`, the
    sharded engine, every :class:`~repro.baselines.common.BaselineEngine`
    — is assembled on: the simulator, the fault injector (absent for a
    null plan), the star network, the server host, the response-time
    sampler, the crash/heartbeat bookkeeping, ``submit`` and ``run``.
    It derives the run's whole fault-tolerance stack from its fault plan.
    It also *declares* the surface :func:`repro.harness.runner.run_simulation`
    measures a finished run through, each item with its neutral default;
    an engine overrides the items that are real for it, and
    :class:`repro.net.backend.MergedRun` carries the same names over
    merged partition snapshots.  What genuinely differs between engines
    stays an override: ``start``/``stop``, ``mark_alive``,
    ``_quiescent`` and each side's ``stop_and_drain`` rule.
:class:`ClientShell`
    What every client wears: its address and CPU, its stable replica,
    the submit-time table response times are measured from, the
    end-to-end resubmission timers with their private jitter RNG, the
    heartbeat, the action-id mint, one "send this submission and arm
    its retry" and one "my action is confirmed" path.
:class:`ServerShell`
    What every serializer wears — the basic and Incomplete World
    servers (and through the latter every shard and the hybrid relay)
    and the baselines' server side: the attached clients and their
    last-heard clock, attach/detach/evict, the liveness sweep, heartbeat
    absorption and the admission of a submission (dedup by ``ActionId``,
    the detached-client and release rules, the admission cheat
    screens).  Each server says only what follows the door.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Set

from repro.core.action import Action, ActionId
from repro.core.messages import Heartbeat, SubmitAction, wire_size
from repro.errors import ConfigurationError, ProtocolError
from repro.metrics.consistency import ConsistencyChecker
from repro.net.faults import (
    HEARTBEAT_INTERVAL_MS,
    LIVENESS_TIMEOUT_MS,
    RETRY_MAX_ATTEMPTS,
    FaultInjector,
    FaultPlan,
    retry_delay,
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
    #: What surviving it takes follows from the plan (:class:`EngineChassis`).
    fault_plan: Optional[FaultPlan] = None

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
    #: Application-level resubmissions of unanswered own actions.
    retransmissions: int = 0
    #: Own echoes that arrived for actions no longer pending, or whose
    #: older pending siblings' echoes were lost (non-strict mode only).
    own_echoes_lost: int = 0
    #: Stream entries accepted for evaluation, and the simulated CPU
    #: they were charged.
    entries_applied: int = 0
    apply_cpu_ms: float = 0.0

    @classmethod
    def total(cls, rows) -> "ClientStats":
        """The field-wise sum of ``rows``."""
        total = cls()
        for row in rows:
            for name, value in vars(row).items():
                setattr(total, name, getattr(total, name) + value)
        return total


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
        faults = network.faults
        #: End-to-end resubmission of unanswered own actions, on a run
        #: that injects faults (the server absorbs resubmissions by id):
        #: the seed of the private jitter RNG, ``None`` for no retries.
        self._retry_seed = (
            None if faults is None
            else (faults.plan.seed << 17) ^ (client_id * 0x9E3779B1)
        )
        self.stats = ClientStats()
        self._next_seq = 0
        self._submit_times: Dict[ActionId, TimeMs] = {}
        self._retry_timers: Dict[ActionId, Event] = {}
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
    @cached_property
    def _retry_rng(self) -> random.Random:
        """Private jitter stream, built on the first retry draw (only a
        fault-plan run draws).  Its seed, the plan's, is mixed with the
        client id so clients draw independently, and it never touches
        the fault RNG."""
        return random.Random(self._retry_seed)

    def _send_submission(self, action: Action, attempt: int = 0) -> None:
        """Send ``action`` to the serializer and arm its retry timer."""
        message = SubmitAction(action)
        self.network.send(self.client_id, self.server_id, message, wire_size(message))
        if self._retry_seed is not None:
            self._arm_retry(action, attempt)

    def _arm_retry(self, action: Action, attempt: int) -> None:
        if attempt >= RETRY_MAX_ATTEMPTS:
            return  # the action is given up on: no more resubmissions
        delay = retry_delay(attempt, self.network.rtt_ms, self._retry_rng)
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
        if self.sim.obs is not None:
            self.sim.obs.on_client_retry(self.client_id, self.sim.now, attempt + 1)
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


def crash_tolerant(faults: Optional[FaultInjector]) -> bool:
    """Whether a run's clients heartbeat and its servers evict the silent
    ones (Section III-C): its fault plan has crash windows."""
    return faults is not None and bool(faults.plan.crashes)


def bound_handlers(owner) -> Dict[type, Callable[[ClientId, object], None]]:
    """``owner.HANDLERS`` (message type -> handler method name) bound to
    ``owner``: the dispatch table of a server, or of a transport-free
    unit its shard server merges in.  Every receiver's table has that
    form; a client looks its handler up from the class instead, since
    one bound table per client is memory a run of thousands pays for."""
    return {kind: getattr(owner, name) for kind, name in owner.HANDLERS.items()}


@dataclass
class ServerStats:
    """The front-door counters every server keeps; each server's own
    stats extend them."""

    #: Resubmissions absorbed by the ActionId dedup filter.
    duplicate_submissions: int = 0
    #: Clients evicted: presumed dead by the liveness sweep (Section
    #: III-C), quarantined, or evicted to be resynced on a reconnect.
    clients_evicted: int = 0


class ServerShell:
    """What every serializer wears between the wire and its protocol.

    The attached clients and the clock of when each was last heard
    from, attach/detach/evict, the periodic liveness sweep, heartbeat
    absorption, and the admission of a ``SubmitAction``: dedup by
    ``ActionId`` (a changed payload under a reused id is a ``replay``
    when a cheat detector is armed), a submission from a client not
    attached is dropped without burning its id, a fresh one is screened
    before the burn and before any server CPU, and an id stranded by a
    detach before the protocol enqueued it is released
    (docs/fault_model.md, docs/adversary.md).

    A server extends it and says what happens after the door:
    :meth:`_accept` a fresh submission, :meth:`_abort_orphans` after an
    eviction, :meth:`_on_unhandled` for a message it has no handler
    for, :meth:`_serves_unattached` where it must not drop a detached
    client's submission.  Constructors register the dispatcher, so
    subclasses set what their handlers read before calling this one.
    """

    #: Dispatch table: message type -> name of its handler method,
    #: called as ``handler(src, message)``.  Subclasses extend it; every
    #: class attribute named ``*HANDLERS`` is checked against the
    #: protocol (docs/static_analysis.md, "Protocol shape").
    HANDLERS = {
        Heartbeat: "_on_heartbeat",
        SubmitAction: "_on_submit",
    }

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host: Host,
        stats: ServerStats,
        *,
        detector=None,
        server_id: ClientId = SERVER_ID,
    ) -> None:
        self.sim = sim
        self.network = network
        self.host = host
        self.stats = stats
        #: Server-side heartbeat eviction: on when the run's fault plan
        #: has crash windows (its clients heartbeat then); otherwise
        #: the server evicts nobody.
        self.liveness = crash_tolerant(network.faults)
        #: Optional :class:`repro.core.detection.CheatDetector` shared by
        #: every server of the engine; ``None`` (honest runs) keeps every
        #: path byte-identical to the detector-free code.
        self.detector = detector
        #: Network address this server sends/receives as.
        self.server_id = server_id
        #: The attached clients, each with the server's record of it.
        self.clients: Dict[ClientId, object] = {}
        #: Attached client -> virtual time last heard from (any message),
        #: in attach order: the order the sweep evicts in.
        self._last_heard: Dict[ClientId, TimeMs] = {}
        #: ActionIds admitted so far (grows with the run — acceptable for
        #: simulation-length histories, see docs/fault_model.md).
        self._seen_actions: Set[ActionId] = set()
        self._stoppers: List[Callable[[], None]] = []
        self._handlers = bound_handlers(self)
        network.register(server_id, self._on_message)

    # ------------------------------------------------------------------
    # Attachment and liveness (Section III-C)
    # ------------------------------------------------------------------
    def attach_client(
        self,
        client_id: ClientId,
        *,
        radius: float = 0.0,
        interests: Optional[frozenset[str]] = None,
    ) -> None:
        """Start serving ``client_id``; its silence clock starts now."""
        if client_id in self.clients:
            raise ProtocolError(f"client {client_id} already attached")
        self.clients[client_id] = self._client_record(client_id, radius, interests)
        self._last_heard[client_id] = self.sim.now

    def _client_record(
        self, client_id: ClientId, radius: float, interests: Optional[frozenset[str]]
    ) -> object:
        """The record kept per attached client (hook; none by default)."""
        return None

    def detach_client(self, client_id: ClientId) -> None:
        """Stop serving ``client_id`` (failure, departure or handoff)."""
        self.clients.pop(client_id, None)
        self._last_heard.pop(client_id, None)

    def evict_client(self, client_id: ClientId) -> None:
        """Presume ``client_id`` dead (Section III-C): detach it, abandon
        its transport state, and abort what only it was holding."""
        if client_id not in self.clients:
            return
        self.detach_client(client_id)
        self.network.reset_channels(client_id)
        self.stats.clients_evicted += 1
        self._abort_orphans()

    def _abort_orphans(self) -> None:
        """Hook: after an eviction, and after every sweep once anyone
        was evicted, abandon the work only presumed-dead clients held
        (the Incomplete World server's all-holders-dead rule)."""

    def start(self, *, stop_at: Optional[TimeMs] = None) -> None:
        """Install the liveness sweep (no-op unless the run's plan
        crashes anything); servers install their own periodic processes
        first."""
        if self.liveness:
            self._stoppers.append(
                self.sim.call_every(
                    LIVENESS_TIMEOUT_MS / 2.0,
                    self._liveness_tick,
                    stop_at=stop_at,
                )
            )

    def stop(self) -> None:
        """Tear down the periodic processes."""
        for stopper in self._stoppers:
            stopper()
        self._stoppers.clear()

    @property
    def running(self) -> bool:
        """Whether a periodic process is installed."""
        return bool(self._stoppers)

    def _liveness_tick(self) -> None:
        deadline = self.sim.now - LIVENESS_TIMEOUT_MS
        for client_id in [
            cid for cid, heard in self._last_heard.items() if heard < deadline
        ]:
            self.evict_client(client_id)
        if self.stats.clients_evicted:
            # Entries can become orphaned after the eviction that killed
            # their last holder (e.g. they were admitted while the death
            # was undetected), so re-sweep every tick once anyone died.
            self._abort_orphans()

    def awaiting_eviction(self, crashed) -> bool:
        """Whether a client in ``crashed`` is still attached while the
        sweep runs: until it presumes the client dead, the run is not
        quiescent."""
        return self.liveness and not crashed.isdisjoint(self.clients)

    # ------------------------------------------------------------------
    # The front door: one dispatcher in, admission of submissions
    # ------------------------------------------------------------------
    def _on_message(self, src: ClientId, payload: object) -> None:
        """Every message this server is handed: note the sender alive,
        then dispatch it."""
        if src in self._last_heard:
            self._last_heard[src] = self.sim.now
        handler = self._handlers.get(type(payload))
        if handler is None:
            self._on_unhandled(src, payload)
            return
        handler(src, payload)

    def _on_unhandled(self, src: ClientId, payload: object) -> None:
        """A message this server has no handler for."""
        self.breach(src, f"unexpected {type(payload).__name__}")

    def breach(self, src: ClientId, what: str) -> None:
        """``src`` sent ``what``, which the protocol does not allow: a
        ``breach`` flagged against it when a detector is armed, an
        error otherwise."""
        server = type(self).__name__
        if self.detector is None:
            raise ProtocolError(f"{server}: {what} from {src}")
        self.detector.flag("breach", src, detail=f"{what} to {server}")

    def send(self, dst: ClientId, message: object) -> None:
        """Put ``message`` on the wire from this server's address, at its
        :func:`wire_size`."""
        self.network.send(self.server_id, dst, message, wire_size(message))

    def _on_heartbeat(self, src: ClientId, beat: Heartbeat) -> None:
        """Liveness only: the dispatcher already noted the sender."""

    def _on_submit(self, src: ClientId, message: SubmitAction) -> None:
        """Admit a submission once, screened, then :meth:`_accept` it."""
        action = message.action
        detector = self.detector
        if action.action_id in self._seen_actions:
            if detector is None or not detector.check_replay(src, action):
                self.stats.duplicate_submissions += 1
            return
        if src not in self.clients and not self._serves_unattached(src):
            # Detached/evicted: drop without burning the ActionId, or
            # the client's resubmissions after re-attaching would be
            # absorbed forever and the action would never serialize.
            return
        if detector is not None and detector.screen_submission(src, action):
            return  # flagged before the burn and any CPU: zero footprint
        self._seen_actions.add(action.action_id)
        self._accept(src, message)

    def _serves_unattached(self, src: ClientId) -> bool:
        """Whether a submission from a client not attached goes on
        (hook; the default drops it)."""
        return False

    def _accept(self, src: ClientId, message: SubmitAction) -> None:
        """A fresh, screened submission passed the door (the server's
        protocol starts here)."""
        raise NotImplementedError

    def _release(self, src: ClientId, action: Action) -> None:
        """``src`` was detached after ``action`` passed the door but
        before the protocol enqueued it: un-burn the id, so the client's
        resubmission after re-attaching can still serialize."""
        self._seen_actions.discard(action.action_id)


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
        self.sim = Simulator()
        plan = config.fault_plan
        # The fault-tolerance stack follows from the plan (Section
        # III-C, docs/fault_model.md).  A plan that is not null gets the
        # fault injector, the ARQ transport and every client's
        # resubmission (a client keys on its network's injector).
        self.faults = (
            FaultInjector(plan) if plan is not None and not plan.is_null else None
        )
        self.network = Network(
            self.sim,
            rtt_ms=config.rtt_ms,
            bandwidth_bps=config.bandwidth_bps,
            faults=self.faults,
        )
        #: A plan with crash windows also gets the clients' heartbeats
        #: and the servers' liveness sweep (each server keys on its
        #: network's injector, through :func:`crash_tolerant`).
        self.liveness = crash_tolerant(self.faults)
        #: A plan that crashes a shard also gets each shard's recovery
        #: log and a gsn lease that can move (the sharded engine's).
        self.shard_failover = self.liveness and bool(plan.shard_crashes)
        self.server_host = Host(self.sim, SERVER_ID)
        #: Serializer hosts by shard index (shard 0's host id *is*
        #: :data:`SERVER_ID`; only sharded deployments add more).
        self.server_hosts: Dict[int, Host] = {0: self.server_host}
        self.response_times = LatencySampler()
        self.clients: Dict[ClientId, ClientShell] = {}
        #: The clients this engine instance built and drives, in id
        #: order: all of them, unless it is a partition replica's slice
        #: (:mod:`repro.net.backend`).  Heartbeats, move generation,
        #: quiescence and quarantine evictions cover the slice only.
        self.owned_clients: List[ClientId] = []
        #: Clients currently presumed crashed (driven by the harness).
        self.dead: set[ClientId] = set()
        #: Clients the cheat detector had evicted (SEVE with an
        #: adversary plan; always empty otherwise).
        self.quarantined: set[ClientId] = set()
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
            HEARTBEAT_INTERVAL_MS, beat, stop_at=stop_at
        )

    def _start_heartbeats(self, stop_at: Optional[TimeMs]) -> None:
        """The owned clients' heartbeats, when the plan crashes anything."""
        if self.liveness:
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

    def _revive(self, client_id: ClientId) -> bool:
        """The harness reconnected this client: it is no longer dead
        and, when this engine drives it, beats again.  Whether this
        engine drives it (each ``mark_alive`` starts here)."""
        self.dead.discard(client_id)
        if client_id not in self.owned_clients:
            return False
        if self.liveness:
            self._install_heartbeat(client_id)
        return True

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def submit(self, client_id: ClientId, action: Action) -> None:
        """Submit an action on behalf of ``client_id``."""
        self.clients[client_id].submit(action)

    def run(self, until: Optional[TimeMs] = None) -> None:
        """Advance the simulation (see :meth:`Simulator.run`)."""
        self.sim.run(until=until)

    def run_to_quiescence(self, max_extra_ms: TimeMs = 600_000.0) -> None:
        """Drain all in-flight work after the workload stops submitting:
        step until the engine's ``_quiescent()`` holds (or the queue
        empties, or ``max_extra_ms`` pass), then its
        ``stop_and_drain(deadline)`` ends the run.  With liveness
        machinery running the queue never empties on its own."""
        deadline = self.sim.now + max_extra_ms
        while self.sim.now < deadline and self.sim.step() and not self._quiescent():
            pass
        self.stop_and_drain(deadline)

    # ------------------------------------------------------------------
    # The measured surface: everything ``run_simulation`` reads from a
    # finished run, with the value an architecture that has no such
    # thing reports.  ``clients``, ``response_times``, ``server_hosts``
    # and ``live_client_ids()`` belong to it too.
    # ------------------------------------------------------------------
    #: Server-side cheat detector (``None``: every client is honest).
    detector = None
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
    def client_stats(self) -> ClientStats:
        """Every client's counters, summed."""
        return ClientStats.total(client.stats for client in self.clients.values())

    @property
    def client_hosts(self) -> Dict[ClientId, Host]:
        """Every client's CPU, by client id."""
        return {client_id: client.host for client_id, client in self.clients.items()}

    def detection_summary(self) -> Dict[str, object]:
        """The adversary-detection fields of a run result; empty on
        honest runs, so the result keeps its dataclass defaults."""
        return {}

    def _servers(self) -> list:
        """Every server of the deployment, each a :class:`ServerShell`
        (the sharded engine returns all its shards)."""
        return [self.server]

    def live_client_ids(self) -> List[ClientId]:
        """Clients neither crashed nor quarantined and still attached to
        some server — the population end-of-run consistency covers."""
        return [
            client_id
            for client_id in self.clients
            if client_id not in self.dead
            and client_id not in self.quarantined
            and any(client_id in server.clients for server in self._servers())
        ]

    @property
    def clients_evicted(self) -> int:
        """Clients the servers evicted (liveness sweep or quarantine)."""
        return sum(server.stats.clients_evicted for server in self._servers())

    def stable_replicas(self, client_ids) -> Dict[ClientId, ObjectStore]:
        """The stable replicas of ``client_ids``, by client id."""
        return {client_id: self.clients[client_id].stable for client_id in client_ids}

    def consistency_report(self, client_ids):
        """The Theorem 1 verdict over the stable replicas of
        ``client_ids``, as ``(ConsistencyReport, cross-shard audit or
        None)``: every held value must be a committed version in the
        server store's history."""
        replicas = self.stable_replicas(client_ids)
        return ConsistencyChecker(self.state).check_all(replicas), None
