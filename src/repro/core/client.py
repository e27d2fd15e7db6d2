"""Client-side action protocol: Algorithms 1, 3 and 4 of the paper.

A :class:`ProtocolClient` maintains one replica of the world state, the
stable version ζ_CS, plus the pending queue Q of locally generated
actions not yet received back from the server.  The optimistic version
ζ_CO is an overlay on ζ_CS holding private copies of only the objects
in WS(Q).  Locally created actions are applied to ζ_CO immediately
(optimistic evaluation) and sent to the server for serialization; the
serialized stream coming back from the server is applied to ζ_CS, and
disagreements between the optimistic and stable evaluation of an own
action trigger reconciliation (Algorithm 3).

The same class implements both the basic protocol (Algorithm 1) and the
Incomplete World protocol (Algorithm 4): the latter additionally sends
completion messages and accepts server blind writes, both controlled by
:class:`ClientConfig`.

All evaluation work is charged to the client's simulated CPU
(:class:`repro.net.host.Host`), which is what makes an overloaded client
(Broadcast at scale, or naive SEVE in a dense crowd) accumulate queueing
delay — the effect Figures 6–8 measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.core.action import ABORT_RESULT, Action, ActionId, ActionResult, BlindWrite
from repro.core.chassis import ClientShell, TestbedConfig
from repro.core.messages import (
    AbortNotice,
    ActionBatch,
    ClientHello,
    CommitNotice,
    Completion,
    GroupBundle,
    HandoffPrepare,
    HandoffReady,
    HandoffWelcome,
    OrderedAction,
    PeerForward,
    wire_size,
)
from repro.core.pending import PendingQueue
from repro.errors import MissingObjectError, ProtocolError
from repro.net.host import Host
from repro.net.network import Network
from repro.net.simulator import Event, Simulator
from repro.state.store import ObjectStore, OverlayStore
from repro.types import SERVER_ID, ClientId, TimeMs


@dataclass
class ClientConfig:
    """Knobs selecting the protocol variant a client speaks.

    ``send_completions``
        Incomplete World mode: report the stable result *u* of own
        actions so the server can build ζ_S (Algorithm 4 step 5).
    ``report_all_completions``
        Fault-tolerance mode (Section III-C): send a completion for
        *every* action applied, not just own ones, so the server can
        commit even when the originator has failed.
    ``eval_overhead_ms``
        Fixed per-action synchronization/bookkeeping cost added to every
        evaluation.  The paper measures 60 ms of "synchronization and
        networking overhead" on top of 32 x 7.44 ms of evaluation per
        300 ms round, i.e. ~1.9 ms per action; charging it uniformly
        wherever actions are evaluated reproduces the Figure 6 knee at
        30-32 clients.
    ``interests``
        Interest classes for Section IV-A inconsequential-action
        elimination; ``None`` subscribes to everything.
    ``strict_stream``
        On a reliable network a duplicate stream position is a protocol
        bug and raises; under fault injection duplicates are a legal
        runtime condition, so fault-mode engines set this False and
        duplicates are counted and skipped instead.
    """

    send_completions: bool = False
    report_all_completions: bool = False
    eval_overhead_ms: float = TestbedConfig.eval_overhead_ms
    interests: Optional[frozenset[str]] = None
    strict_stream: bool = True
    #: Record every applied stream entry (and handoff epoch boundary)
    #: into ``client.observations`` — the raw material of the sharded
    #: consistency audit and the differential tests.  Pure
    #: bookkeeping: never touches the simulation schedule.
    record_observations: bool = False


class ProtocolClient(ClientShell):
    """One client of an action-based protocol (Algorithms 1/4)."""

    #: Stream entries delivered and waiting for the CPU, oldest first
    #: (a client's own list from its first delivery on, short: a list
    #: that empties gives its slots back, so an idle client holds about
    #: 56 bytes): the host runs one :meth:`_process_next` per entry, in
    #: the same order.
    _arrivals: Optional[List[OrderedAction]] = None
    #: The radius a post-crash hello announces (set by :meth:`rejoin`).
    _hello_radius: float = 0.0

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        host: Host,
        client_id: ClientId,
        stable_store: ObjectStore,
        *,
        config: Optional[ClientConfig] = None,
        server_id: ClientId = SERVER_ID,
    ) -> None:
        self.config = config or ClientConfig()
        super().__init__(
            sim,
            network,
            host,
            client_id,
            stable_store,
            server_id=server_id,
        )
        #: ζ_CO — ζ_CS (``stable``) plus the optimistic effects of Q:
        #: an overlay holding private copies of the objects in WS(Q).
        self.optimistic = OverlayStore(stable_store)
        self.queue = PendingQueue()
        self._applied_positions: Set[int] = set()
        self._gc_frontier = -1
        #: Whether ``_applied_positions`` may hold a position at or below
        #: ``_gc_frontier`` (one delivered after the frontier passed it,
        #: or a stream taken back from ``_stream_state``).
        self._strays = False
        #: Observation log (``record_observations``): one tuple per
        #: applied stream entry ``(server_id, pos, action_id, origin)``
        #: plus ``("epoch", shard_id)`` markers at handoff boundaries.
        self.observations: Optional[list] = (
            [] if self.config.record_observations else None
        )
        # -- sharded handoff state (dormant in single-server runs) ------
        self._migrating = False
        self._migration_buffer: list[Action] = []
        #: Shard a migration is moving us toward (from HandoffPrepare),
        #: so the harness can tell we die with a crashing target shard.
        self._migration_target: Optional[int] = None
        #: Post-crash rejoin (docs/control_plane.md): the server we are
        #: hello-ing at, and the retry timer re-sending the hello until
        #: a HandoffWelcome answers it.
        self._rejoin_target: Optional[ClientId] = None
        self._hello_timer: Optional[Event] = None
        #: Per-shard stream dedup state parked across handoffs, so a
        #: return to a previously visited shard keeps its positions.
        self._stream_state: Dict[ClientId, tuple] = {}
        #: Hook: own action dropped by the server; args (action_id,).
        self.on_aborted: Optional[Callable[[ActionId], None]] = None
        network.register(client_id, self._on_message)

    # ------------------------------------------------------------------
    # Action creation (Algorithm 1/4 step 2)
    # ------------------------------------------------------------------
    def _wire_action(self, action: Action) -> Action:
        """The action as it goes on the wire — identity for honest clients.

        Seam for the :mod:`repro.adversary` cheat models: what a client
        *sends* need not be what it executes locally.  Overrides must
        preserve the ActionId (local bookkeeping — optimistic queue,
        submit times, retries — keys on it).
        """
        return action

    def submit(self, action: Action) -> None:
        """Optimistically evaluate ``action`` and send it to the server.

        The optimistic evaluation runs on the client CPU; the submit
        message leaves for the server immediately (the paper's client
        sends the action concurrently with evaluating it).
        """
        self.note_submitted(action)
        if self._migrating:
            # Mid-handoff: park the submission, flushed to the new shard
            # on HandoffWelcome.  Optimistic bookkeeping proceeds as
            # usual below so the local experience is seamless.
            self._migration_buffer.append(action)
        else:
            self._send_submission(self._wire_action(action))

        # The queue/replica update is synchronous so that protocol state
        # is never behind the network (a backlogged CPU must not let the
        # server's echo overtake our own bookkeeping); the evaluation
        # *cost* is charged to the CPU as a delay item.
        result = self._apply_optimistically(action)
        self.queue.push(action, result)
        cost = action.cost_ms + self.config.eval_overhead_ms
        if cost > 0:
            self.host.execute(cost, lambda: None)

    def _apply_optimistically(self, action: Action) -> ActionResult:
        """Evaluate ``action`` against ζ_CO, tolerating missing reads.

        Under the Incomplete World Model a client may create an action
        whose read set mentions objects its replica does not (yet) hold
        — e.g. shooting at an avatar known only by id.  The optimistic
        guess then degrades to the abort result; the authoritative
        evaluation on ζ_CS will disagree and trigger reconciliation,
        which is exactly the designed recovery path.

        The action's writes are copied into the overlay first: the
        evaluation updates the objects it writes in place.
        """
        self.optimistic.hold(action.writes)
        try:
            return action.apply(self.optimistic)
        except MissingObjectError:
            return ABORT_RESULT

    # ------------------------------------------------------------------
    # Server stream handling (Algorithm 1/4 steps 3-5)
    # ------------------------------------------------------------------
    #: Dispatch table: message type -> name of its handler method,
    #: called as ``handler(src, message)`` — the servers' form, looked
    #: up from the class (a client keeps no table of its own).
    HANDLERS = {
        HandoffPrepare: "_begin_migration",
        HandoffWelcome: "_complete_migration",
        ActionBatch: "_on_batch",
        AbortNotice: "_handle_abort",
        CommitNotice: "_handle_commit_notice",
        GroupBundle: "_relay_bundle",
        PeerForward: "_on_forward",
    }

    def _on_message(self, src: ClientId, payload: object) -> None:
        name = self.HANDLERS.get(type(payload))
        if name is None:
            raise ProtocolError(
                f"client {self.client_id}: unexpected message "
                f"{type(payload).__name__} from {src}"
            )
        getattr(self, name)(src, payload)

    def _stale(self, src: ClientId) -> bool:
        """Whether ``src`` is a shard we have handed off from: its
        committed effects (if any) were reconciled at handoff time, so
        applying its late stream would double-apply."""
        return src < 0 and src != self.server_id

    def _on_batch(self, src: ClientId, batch: ActionBatch) -> None:
        if self._stale(src):
            return
        if batch.last_installed > self._gc_frontier:
            self._garbage_collect(batch.last_installed)
        for entry in batch.entries:
            self._enqueue_entry(entry)

    def _on_forward(self, src: ClientId, forward: PeerForward) -> None:
        """Hybrid mode (§VII): a head forwarded our batch to us."""
        self._on_batch(src, forward.payload)

    def _relay_bundle(self, src: ClientId, bundle: GroupBundle) -> None:
        """Hybrid mode (§VII): we are this cycle's relay head.

        Rebuild each member's batch from the shared entry table, forward
        peers' batches over peer links, and apply our own (when the
        bundle holds one for us).
        """
        own_batch = None
        for member, items in bundle.members:
            entries = tuple(
                bundle.shared[item] if isinstance(item, int) else item
                for item in items
            )
            batch = ActionBatch(entries, last_installed=bundle.last_installed)
            if member == self.client_id:
                own_batch = batch
            else:
                forward = PeerForward(member, batch)
                self.network.send(
                    self.client_id, member, forward, wire_size(forward)
                )
        if own_batch is not None:
            self._on_batch(src, own_batch)

    def _enqueue_entry(self, entry: OrderedAction) -> None:
        pos = entry.pos
        if pos >= 0:
            # The GC frontier is deliberately NOT a duplicate signal: a
            # batch's last_installed covers the batch's own entries, so
            # first deliveries at pos <= frontier are legitimate.  The
            # ARQ transport dedups injected duplicates below this layer.
            if pos in self._applied_positions:
                if self.config.strict_stream:
                    raise ProtocolError(f"client {self.client_id}: duplicate delivery of pos {pos}")
                return  # non-strict: skip the duplicate delivery
            self._applied_positions.add(pos)
            if pos <= self._gc_frontier:
                self._strays = True
        # ``BlindWrite`` has no subclasses: an exact type test skips the
        # ABC instance check on the per-entry path.
        cost = entry.action.cost_ms + (
            0.0 if type(entry.action) is BlindWrite else self.config.eval_overhead_ms
        )
        self.stats.entries_applied += 1
        self.stats.apply_cpu_ms += cost
        if self._arrivals is None:
            self._arrivals = []
        self._arrivals.append(entry)
        self.host.execute(cost, self._process_next)

    def _process_next(self) -> None:
        """The CPU finished applying the oldest delivered entry."""
        self._process_entry(self._arrivals.pop(0))

    def _process_entry(self, entry: OrderedAction) -> None:
        if not self.network.is_registered(self.client_id):
            # We crashed between the delivery and this CPU callback: the
            # work died with the process.  Un-mark the position so a
            # post-reconnect redelivery is not mistaken for a duplicate.
            self._applied_positions.discard(entry.pos)
            return
        action = entry.action
        if self.observations is not None:
            self.observations.append(
                (
                    self.server_id,
                    entry.pos,
                    action.action_id,
                    getattr(action, "origin", None),
                )
            )
        if action.client_id == self.client_id:
            self._process_own_action(entry)
        else:
            self._process_remote_action(entry)

    def _process_remote_action(self, entry: OrderedAction) -> None:
        """Step 4: remote action (or server blind write) applied to ζ_CS,
        which ζ_CO reads through outside WS(Q)."""
        action = entry.action
        if type(action) is BlindWrite:
            self.stats.blind_writes_applied += 1
        else:
            self.stats.stable_evaluations += 1
        result = action.apply(self.stable)
        if self.config.report_all_completions and type(action) is not BlindWrite:
            self._send_completion(action, result, pos=entry.pos)

    def _process_own_action(self, entry: OrderedAction) -> None:
        """Step 5: our own action came back; compare with its optimistic
        evaluation, reconcile on mismatch, send completion."""
        action = entry.action
        if not self.queue or self.queue.head()[0].action_id != action.action_id:
            if self.config.strict_stream:
                raise ProtocolError(
                    f"client {self.client_id}: own action {action.action_id} "
                    f"returned out of order (queue head: "
                    f"{self.queue.head()[0].action_id if self.queue else 'empty'})"
                )
            # Lossy/churny run: the echoes of older pending actions were
            # lost (e.g. cancelled while we were crashed).  They are in
            # the committed stream regardless, so drop their optimistic
            # entries and resynchronise on this one (Section III-C).
            if any(a.action_id == action.action_id for a, _ in self.queue):
                self._fast_forward_to(action.action_id)
            else:
                # Echo of an action we no longer track: it is still part
                # of the committed order, so it must reach ζ_CS.
                self.stats.own_echoes_lost += 1
                self._settle(action.action_id)
                self.stats.stable_evaluations += 1
                result = action.apply(self.stable)
                if self.config.send_completions:
                    self._send_completion(action, result, pos=entry.pos)
                return
        self.stats.stable_evaluations += 1
        stable_result = action.apply(self.stable)
        _, optimistic_result = self.queue.pop_head()
        if stable_result != optimistic_result:
            self.stats.mismatches += 1
            self._reconcile()
        else:
            # The guess was right: what only this action wrote reads
            # through to ζ_CS again.
            self.optimistic.release(
                oid for oid in action.writes if not self.queue.writes(oid)
            )
        if self.config.send_completions:
            self._send_completion(action, stable_result, pos=entry.pos)
        self.stats.confirmed += 1
        self._cancel_retry(action.action_id)
        self.note_confirmed(action.action_id)

    def _settle(self, action_id: ActionId) -> None:
        """Own action ``action_id`` needs no answer any more: stop its
        response clock (unreported) and its retry timer."""
        self._submit_times.pop(action_id, None)
        self._cancel_retry(action_id)

    def _fast_forward_to(self, action_id: ActionId) -> None:
        """Drop pending own actions older than ``action_id``.

        Their echoes (or their submissions) were lost in a crash window:
        either they are already in the committed stream and we merely
        missed the batch, or the server never saw them — in which case
        Section III-C says "it is acceptable to assume that the action
        was never submitted".  Either way the optimistic entry must go,
        and ζ_CO must be reconciled without it.
        """
        while self.queue and self.queue.head()[0].action_id != action_id:
            lost, _ = self.queue.pop_head()
            self._settle(lost.action_id)
            self.stats.own_echoes_lost += 1
        self._reconcile()

    def _send_completion(
        self, action: Action, result: ActionResult, pos: int = -1
    ) -> None:
        message = Completion(pos, action.action_id, result, reporter=self.client_id)
        self.network.send(self.client_id, self.server_id, message, wire_size(message))

    # ------------------------------------------------------------------
    # Reconciliation (Algorithm 3)
    # ------------------------------------------------------------------
    def _reconcile(self) -> None:
        """ζ_CO(WS(Q)) ← ζ_CS(WS(Q)); replay Q against ζ_CO.

        The overlay drops every private copy — those of WS(Q) and those
        of actions just removed from Q (an abort, a confirmation that
        disagreed), whose optimistic effects must be undone too — and
        the replay copies WS(Q) from ζ_CS afresh.

        The replay cost is charged to the CPU as a follow-up work item
        (pure delay) so queueing behaviour stays realistic while the
        state machine remains synchronous.
        """
        self.stats.reconciliations += 1
        self.optimistic.release()
        replay_cost = 0.0
        for index, (action, _) in enumerate(self.queue):
            replay_cost += action.cost_ms + self.config.eval_overhead_ms
            new_result = self._apply_optimistically(action)
            self.queue.replace_result(index, new_result)
        if replay_cost > 0:
            self.host.execute(replay_cost, lambda: None)

    # ------------------------------------------------------------------
    # Aborts (Information Bound Model drops)
    # ------------------------------------------------------------------
    def _handle_abort(self, src: ClientId, notice: AbortNotice) -> None:
        if self._stale(src):
            return
        removed = self.queue.remove(notice.action_id)
        self._settle(notice.action_id)
        if removed is None:
            return  # already confirmed or never queued; nothing to undo
        self.stats.aborted += 1
        # Undo the dropped action's optimistic effect by reconciling the
        # remaining queue against the stable state.
        self._reconcile()
        self.stats.reconciliations -= 1  # bookkeeping: abort, not mismatch
        if self.on_aborted is not None:
            self.on_aborted(notice.action_id)

    def _handle_commit_notice(self, src: ClientId, notice: CommitNotice) -> None:
        """Our action committed while we did not hold it — the echo
        can never arrive (the entry left the server's queue), so retire
        the optimistic entry here.  The committed
        values arrived in the blind write preceding this notice on the
        same FIFO channel, so reconciling over ζ_CS replaces the
        optimistic guess with the authoritative result."""
        if self._stale(src):
            return
        removed = self.queue.remove(notice.action_id)
        if removed is None:
            self._settle(notice.action_id)
            return  # already confirmed (a late duplicate of the notice)
        self.stats.confirmed += 1
        self._reconcile()
        self.stats.reconciliations -= 1  # bookkeeping: commit, not mismatch
        self._cancel_retry(notice.action_id)
        self.note_confirmed(notice.action_id)

    # ------------------------------------------------------------------
    # Shard handoff (sharded deployments only)
    # ------------------------------------------------------------------
    def _begin_migration(self, src: ClientId, prepare: HandoffPrepare) -> None:
        """Our shard announced a handoff: stop sending it submissions
        and acknowledge so it can quiesce our in-flight work.

        The HandoffReady travels on the same FIFO channel as every
        prior submission, so its arrival proves the shard has received
        everything we ever sent it.
        """
        if src != self.server_id:
            return  # stale prepare from a previous owner
        self._migrating = True
        self._migration_target = prepare.new_shard
        message = HandoffReady(self.client_id)
        self.network.send(self.client_id, self.server_id, message, wire_size(message))

    def _complete_migration(self, src: ClientId, welcome: HandoffWelcome) -> None:
        """The new shard adopted us: switch streams, drop pending
        entries the old shard resolved, flush parked submissions."""
        if self._rejoin_target is not None:
            # A post-crash hello was answered (by the target, or by a
            # regular handoff that raced it); stop re-sending hellos.
            self._rejoin_target = None
            if self._hello_timer is not None:
                self._hello_timer.cancel()
                self._hello_timer = None
        if self.observations is not None:
            self.observations.append(("epoch", src))
        if src != self.server_id:
            # Swap per-shard stream dedup state: positions are local to
            # each shard's serialization stream.
            self._stream_state[self.server_id] = (self._applied_positions, self._gc_frontier)
            self._applied_positions, self._gc_frontier = self._stream_state.pop(src, (set(), -1))
            self._strays = True
            self.server_id = src
        resolved = False
        for action_id in welcome.resolved:
            resolved |= self.queue.remove(action_id) is not None
            self._settle(action_id)
        if resolved:
            # Resolved by the old shard but the echo may never reach us
            # (its stream is stale now): undo the optimistic guesses.
            self._reconcile()
        self._migrating = False
        self._migration_target = None
        for action in self._migration_buffer:
            if action.action_id not in self._submit_times:
                continue  # resolved while parked
            self._send_submission(self._wire_action(action))
        self._migration_buffer.clear()

    # ------------------------------------------------------------------
    # Post-crash rejoin (sharded deployments; docs/control_plane.md)
    # ------------------------------------------------------------------
    #: Hello re-send period while a rejoin is unanswered.
    HELLO_RETRY_MS: TimeMs = 1_000.0

    def rejoin(self, target: ClientId, radius: float) -> None:
        """Re-attach after a crash via the protocol: hello the target
        shard and park submissions until its welcome arrives.

        The classic single-server reconnect re-attaches through the
        harness oracle (:meth:`SeveEngine.mark_alive`); at K > 1 the
        right shard is a protocol question — the avatar may have moved,
        the old shard may itself be down — so the rejoiner asks and
        retries until some shard welcomes it.
        """
        self._migrating = True
        self._migration_target = None
        self._rejoin_target = target
        self._hello_radius = radius
        self._send_hello()

    def _send_hello(self) -> None:
        if self._rejoin_target is None:
            return
        if not self.network.is_registered(self.client_id):
            self._rejoin_target = None  # crashed again mid-rejoin
            return
        hello = ClientHello(
            self.client_id, self._hello_radius, self.config.interests
        )
        self.network.send(
            self.client_id, self._rejoin_target, hello, wire_size(hello)
        )
        self._hello_timer = self.sim.schedule(
            self.HELLO_RETRY_MS, self._send_hello
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _garbage_collect(self, frontier: int) -> None:
        """Move the commit frontier up to ``frontier`` and drop the dedup
        bookkeeping at or below it (the paper's 'optimized for memory'
        note in Section III-C), in place: position by position from the
        old frontier up, or, when the set is the shorter walk or may hold
        a stray below the old frontier, in one pass over the set."""
        applied, old = self._applied_positions, self._gc_frontier
        self._gc_frontier = frontier
        if self._strays or frontier - old > len(applied):
            applied.difference_update([pos for pos in applied if pos <= frontier])
            self._strays = False
        else:
            applied.difference_update(range(old + 1, frontier + 1))

    @property
    def pending_count(self) -> int:
        """Number of own actions awaiting confirmation."""
        return len(self.queue)

    def __repr__(self) -> str:
        return (
            f"ProtocolClient(id={self.client_id}, pending={len(self.queue)}, "
            f"confirmed={self.stats.confirmed})"
        )
