"""Schedule-permutation race explorer — DPOR-lite
(docs/static_analysis.md).

The protocol's ordering assumptions (gsn splice order, elastic epoch
fences, lease terms, the in-order closure guard) are exercised by
example schedules only: whatever delivery order the simulator's
deterministic heap happens to produce.  This module *systematically
perturbs* that order.  A :class:`SchedulePerturber` installed on the
network's ``perturb`` hook delays messages so that everything sent
within one virtual-time window is delivered just past the window
boundary, ordered by a deterministic *rank rule* (reverse the send
order, swap adjacent pairs, sort by message type, sort by destination)
— a different interleaving per rule, each one a schedule the real
system could produce, because any non-negative delay is legal (per-link
FIFO survives: :meth:`repro.net.link.Link.transmit` clamps arrivals to
the link's last arrival).

Every permuted run must satisfy the same invariants as the natural
schedule: the engine drains to quiescence, the cross-shard audits stay
green, the elastic send/receive counters conserve, and every parked
deferred reply is eventually answered (the PR 9 replica-gap
conservation law).  Byte-identity is asserted where the protocol
promises it — two runs of the *same* schedule — never across different
schedules, which may legitimately serialize in a different order.

A violating schedule is *shrunk* (ddmin over the set of perturbed
windows) to a minimal set of windows — usually one — whose reordering
alone reproduces the violation, and rendered as a reordering trace:
the window's messages in send order vs. delivery order.

Exploration is bounded by a run budget, so the CI smoke stays cheap;
``explore(budget=...)`` scales from a 2-second smoke to an overnight
sweep with one knob.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Rank-rule space.  A rule maps one recorded send ``(seq, src, dst,
#: type_name)`` to a rank; within a perturbed window messages are
#: delivered in rank order instead of send order.  Ranks are reduced
#: modulo ``_BIG`` into the delay epsilon, so any integer is legal.
_BIG = 4096

RankRule = Callable[[int, int, int, str], int]


def _rank_reverse(seq: int, src: int, dst: int, type_name: str) -> int:
    return _BIG - 1 - seq


def _rank_swap_adjacent(seq: int, src: int, dst: int, type_name: str) -> int:
    return seq ^ 1


def _rank_by_type(seq: int, src: int, dst: int, type_name: str) -> int:
    # crc32 is process-stable (unlike hash()), so the rule is the same
    # permutation on every host and every run.
    return (zlib.crc32(type_name.encode("ascii")) % 61) * 64 + (seq % 64)


def _rank_by_destination(seq: int, src: int, dst: int, type_name: str) -> int:
    return (int(dst) % 7) * 512 + (seq % 512)


#: The explored rules, in exploration order.  ``identity`` (no
#: perturbation) is implicit — it is the baseline every run budget
#: spends its first two runs on (once for invariants, once for the
#: same-schedule byte-identity check).
RULES: Dict[str, RankRule] = {
    "reverse": _rank_reverse,
    "swap-adjacent": _rank_swap_adjacent,
    "by-type": _rank_by_type,
    "by-destination": _rank_by_destination,
}


@dataclass
class SendRecord:
    """One scoped send observed by the perturber."""

    window: int
    seq: int
    src: int
    dst: int
    type_name: str

    def label(self) -> str:
        return f"#{self.seq} {self.type_name} {self.src}->{self.dst}"


class SchedulePerturber:
    """Delay-injecting schedule permuter for :attr:`Network.perturb`.

    ``scope`` selects which sends are eligible: ``"backbone"`` (server
    to server only — the sharded scenarios) or ``"all"`` (every raw
    send — the single-server reactive scenario, which has no backbone).
    ``rule=None`` records without perturbing (the identity schedule).
    ``windows`` restricts the perturbation to a subset of window
    indices (``None`` = every window) — the deviation and shrink runs.
    """

    def __init__(
        self,
        window_ms: float = 5.0,
        rule: Optional[RankRule] = None,
        windows: Optional[frozenset] = None,
        scope: str = "backbone",
    ) -> None:
        if window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {window_ms}")
        if scope not in ("backbone", "all"):
            raise ValueError(f"unknown scope {scope!r}")
        self.window_ms = window_ms
        self.rule = rule
        self.windows = windows
        self.scope = scope
        self.log: List[SendRecord] = []
        self._seqs: Dict[int, int] = {}
        self._network = None
        # Rank epsilon: the full rank space spans at most 1/8 of a
        # window past its boundary, so perturbed deliveries never leak
        # into the next-but-one window.
        self._eps = window_ms / (8.0 * _BIG)

    def bind(self, network) -> None:
        """Install on ``network`` (must happen before the run starts)."""
        self._network = network
        network.perturb = self

    def __call__(self, src, dst, payload, now) -> float:
        if self.scope == "backbone" and not (
            self._network is not None
            and self._network.is_server(src)
            and self._network.is_server(dst)
        ):
            return 0.0
        window = int(now // self.window_ms)
        seq = self._seqs.get(window, 0)
        self._seqs[window] = seq + 1
        type_name = type(payload).__name__
        self.log.append(SendRecord(window, seq, src, dst, type_name))
        if self.rule is None:
            return 0.0
        if self.windows is not None and window not in self.windows:
            return 0.0
        rank = self.rule(seq, src, dst, type_name) % _BIG
        window_end = (window + 1) * self.window_ms
        return (window_end - now) + self._eps * rank

    def perturbable_windows(self) -> List[int]:
        """Windows where the rule could actually reorder something
        (two or more scoped sends)."""
        counts: Dict[int, int] = {}
        for record in self.log:
            counts[record.window] = counts.get(record.window, 0) + 1
        return sorted(w for w, n in counts.items() if n >= 2)


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
@dataclass
class PreparedRun:
    """One freshly built engine plus its drive/check closures."""

    engine: object
    run: Callable[[], None]
    check: Callable[[], List[str]]


@dataclass
class RaceScenario:
    """A small deterministic deployment the explorer replays under
    permuted schedules."""

    name: str
    description: str
    build: Callable[[], PreparedRun]
    scope: str = "backbone"
    #: Scenario-specific window override; ``None`` uses the explorer's
    #: ``window_ms``.  Windows should straddle the message exchanges
    #: whose order the scenario means to stress.
    window_ms: Optional[float] = None


def _explore_settings(**overrides):
    from repro.harness.config import SimulationSettings

    base = dict(
        num_clients=8,
        num_walls=0,
        moves_per_client=8,
        world_width=1200.0,
        world_height=900.0,
        spawn="cluster",
        spawn_extent=400.0,
        rtt_ms=100.0,
        bandwidth_bps=None,
        move_interval_ms=150.0,
        cost_model="fixed",
        move_cost_ms=1.0,
        eval_overhead_ms=0.1,
        seed=17,
        shards=2,
    )
    base.update(overrides)
    return SimulationSettings(**base)


def _fingerprint(engine) -> object:
    state = {
        oid: tuple(sorted(engine.state.get(oid).as_dict().items()))
        for oid in sorted(engine.state.ids())
    }
    observations = {
        cid: tuple(client.observations or ())
        for cid, client in sorted(engine.clients.items())
    }
    return (state, observations)


def _check_common(engine) -> List[str]:
    problems: List[str] = []
    if not engine._quiescent():
        problems.append(
            "quiescence: run drained its event queue without reaching "
            "quiescence"
        )
    return problems


def _deferred_reply_stats(servers) -> Tuple[int, int]:
    parked = sum(server.stats.replies_parked for server in servers)
    answered = sum(server.stats.replies_answered for server in servers)
    return parked, answered


def _check_sharded(engine, *, conservation: bool = True) -> List[str]:
    from repro.metrics.shard_audit import audit_sharded_run

    problems = _check_common(engine)
    audit = audit_sharded_run(engine)
    if not audit.consistent:
        problems.append(f"audit: {audit.summary()}")
    if conservation:
        sent = sum(s.elastic_sent for s in engine.shard_servers)
        received = sum(s.elastic_received for s in engine.shard_servers)
        if sent != received:
            problems.append(
                f"elastic-conservation: sent={sent} received={received}"
            )
    if not all(server.quiescent() for server in engine._live_owned_servers()):
        problems.append(
            "undrained: a live shard still holds a handoff, an uncommitted "
            "action, an open epoch or a pending version"
        )
    parked, answered = _deferred_reply_stats(engine.shard_servers)
    if parked != answered:
        problems.append(
            f"deferred-replies: parked={parked} answered={answered}"
        )
    return problems


def _check_reactive(engine) -> List[str]:
    problems = _check_common(engine)
    parked, answered = _deferred_reply_stats([engine.server])
    if parked != answered:
        problems.append(
            f"deferred-replies: parked={parked} answered={answered}"
        )
    return problems


def _prepare(architecture, settings, check) -> PreparedRun:
    from repro.harness.architectures import build_engine
    from repro.harness.workload import MoveWorkload, start_run

    engine = build_engine(architecture, settings)
    workload = MoveWorkload(engine, engine.world, settings)

    def run() -> None:
        # Hand-driven on the per-event loop: the explorer permutes the
        # event queue of one simulator.
        start_run(engine, workload, settings)
        engine.run(until=settings.submit_horizon_ms)
        engine.run_to_quiescence()

    return PreparedRun(engine=engine, run=run, check=lambda: check(engine))


def _build_k2_elastic() -> PreparedRun:
    settings = _explore_settings(
        elastic=True,
        elastic_interval_ms=200.0,
        elastic_threshold=1.05,
        elastic_hysteresis=1,
    )
    return _prepare("seve", settings, _check_sharded)


def _build_k2_failover() -> PreparedRun:
    from repro.net.faults import CrashWindow, FaultPlan

    plan = FaultPlan(
        seed=7, crashes=(CrashWindow(-1, 600.0, None, shard_index=0),)
    )
    settings = _explore_settings(
        control_plane="replicated", fault_plan=plan, seed=13
    )
    # Shard hosts can die holding control messages, so elastic
    # conservation is waived exactly as the engine's own quiescence
    # term waives it (there is no elastic config here anyway).
    return _prepare(
        "seve", settings, lambda e: _check_sharded(e, conservation=False)
    )


def _build_reactive_deferred() -> PreparedRun:
    """Single-server reactive mode, scripted for reply parking.

    The stock move workload cannot exercise the deferred-reply path:
    incomplete-mode clients plan from their optimistic replica, which
    starts with only their own avatar, so their declared read sets
    never overlap.  This scenario scripts the overlap instead.  Each
    round, a *blocker* client submits a self-only move; client 0 then
    submits a self-only move (setting its server-side high-water mark
    past the blocker's still-uncommitted entry) and, before the
    blocker's completion can round-trip, a move that *reads* the
    blocker's avatar.  The closure chain for that reply pulls the
    blocker's older entry, trips the in-order guard, and the reply
    parks until the blocker's entry commits — the exact surface of the
    PR 9 replica gap.  Whether the park happens at all depends on the
    submission/completion interleaving, which is what the explorer
    permutes (scope "all": there is no backbone here).
    """
    from repro.core.action import ActionId
    from repro.harness.architectures import build_engine
    from repro.world.avatar import avatar_id, avatar_position
    from repro.world.movement import MoveAction

    from repro.net.faults import CrashWindow, FaultPlan

    rounds = 3
    period = 400.0
    crash_rounds = tuple(r for r in range(rounds) if r != 1)
    # Declaring the crashes in the fault plan (rather than ad-hoc
    # network kills) arms the liveness machinery, so a crashed
    # blocker's unwitnessed entry is eventually evicted and the run
    # still drains — under *any* delivery order.
    plan = FaultPlan(
        seed=3,
        crashes=tuple(
            CrashWindow(1 + r, 5.0 + r * period + 10.0, None)
            for r in crash_rounds
        ),
    )
    settings = _explore_settings(
        shards=1, fault_tolerant=True, seed=23, num_clients=5,
        spawn_extent=12.0, fault_plan=plan,
    )
    engine = build_engine("incomplete", settings)
    world = engine.world
    cfg = world.config
    seqs: Dict[int, int] = {}
    witness = 4

    def submit(client_id: int, reads_clients: Tuple[int, ...]) -> None:
        store = engine.planning_store(client_id)
        me_oid = avatar_id(client_id)
        me = store.get(me_oid)
        seq = seqs.get(client_id, 0)
        seqs[client_id] = seq + 1
        action = MoveAction(
            ActionId(client_id, seq),
            me_oid,
            neighbors=frozenset(avatar_id(c) for c in reads_clients),
            walls=world.walls,
            duration_s=cfg.move_duration_s,
            effect_range=cfg.effect_range,
            position=avatar_position(me),
            cost_ms=settings.move_cost_ms,
        )
        engine.submit(client_id, action)

    def crash(client_id: int) -> None:
        engine.network.crash(client_id)
        engine.mark_dead(client_id)

    horizon = rounds * period + 2 * settings.move_interval_ms

    def run() -> None:
        engine.start(stop_at=horizon + 15_000.0)
        for window in plan.crashes:
            engine.sim.schedule_at(
                window.at_ms, lambda c=window.client_id: crash(c)
            )
        for r in range(rounds):
            t0 = 5.0 + r * period
            blocker = 1 + r
            engine.sim.schedule_at(t0, lambda b=blocker: submit(b, ()))
            engine.sim.schedule_at(t0 + 5.0, lambda: submit(0, ()))
            engine.sim.schedule_at(
                t0 + 25.0, lambda b=blocker: submit(0, (b,))
            )
            # The witness's chain pulls client 0's parked entry, and
            # its fault-tolerant completion reports can commit the
            # entry while the reply is still parked — the
            # committed-values reply path (the crashed rounds keep the
            # blocker's own completion out of that race; round 1
            # leaves it alive for the ordinary retry path).
            engine.sim.schedule_at(
                t0 + 30.0, lambda: submit(witness, (0,))
            )
        engine.run(until=horizon)
        engine.run_to_quiescence()

    return PreparedRun(
        engine=engine, run=run, check=lambda: _check_reactive(engine)
    )


def default_scenarios() -> List[RaceScenario]:
    """The checked-in scenario suite (ISSUE: K=2 elastic epoch open,
    one lease failover, plus the reactive deferred-reply surface)."""
    return [
        RaceScenario(
            name="k2-elastic",
            description=(
                "K=2 sharded run with the elastic rebalancer armed low "
                "so an epoch opens mid-run; backbone delivery permuted"
            ),
            build=_build_k2_elastic,
            scope="backbone",
        ),
        RaceScenario(
            name="k2-failover",
            description=(
                "K=2 replicated control plane with a permanent shard-0 "
                "crash: one lease failover mid-run; backbone permuted"
            ),
            build=_build_k2_failover,
            scope="backbone",
        ),
        RaceScenario(
            name="reactive-deferred",
            description=(
                "single-server reactive Incomplete World Model with "
                "fault-tolerant completions: the deferred-reply parking "
                "surface (PR 9); all client<->server delivery permuted"
            ),
            build=_build_reactive_deferred,
            scope="all",
            # Wide windows: the interesting exchanges (a blocker's
            # completion racing the reader's next submission) span tens
            # of virtual ms, far wider than the backbone default.
            window_ms=100.0,
        ),
    ]


# ----------------------------------------------------------------------
# Exploration
# ----------------------------------------------------------------------
@dataclass
class RaceViolation:
    """One invariant violation under a permuted schedule, shrunk."""

    scenario: str
    rule: str
    #: Minimal window set whose perturbation reproduces the violation
    #: (``None``: the violation needs no perturbation at all — the
    #: identity schedule already fails).
    windows: Optional[Tuple[int, ...]]
    problems: Tuple[str, ...]
    #: Reordering trace of the minimal schedule: per window, the
    #: messages in send order and in (perturbed) delivery order.
    trace: Tuple[dict, ...]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "rule": self.rule,
            "windows": None if self.windows is None else list(self.windows),
            "problems": list(self.problems),
            "trace": [dict(entry) for entry in self.trace],
        }


@dataclass
class ScenarioResult:
    scenario: str
    description: str
    runs: int = 0
    schedules: int = 0
    deterministic: Optional[bool] = None
    perturbable_windows: int = 0
    violations: List[RaceViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.deterministic is not False and not self.violations

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "description": self.description,
            "runs": self.runs,
            "schedules": self.schedules,
            "deterministic": self.deterministic,
            "perturbable_windows": self.perturbable_windows,
            "violations": [v.to_dict() for v in self.violations],
            "ok": self.ok,
        }


@dataclass
class ExplorerReport:
    window_ms: float
    results: List[ScenarioResult]

    @property
    def total_runs(self) -> int:
        return sum(result.runs for result in self.results)

    @property
    def total_schedules(self) -> int:
        return sum(result.schedules for result in self.results)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def to_dict(self) -> dict:
        return {
            "window_ms": self.window_ms,
            "total_runs": self.total_runs,
            "total_schedules": self.total_schedules,
            "ok": self.ok,
            "scenarios": [result.to_dict() for result in self.results],
        }

    def summary(self) -> str:
        lines = [
            f"race explorer: {self.total_schedules} schedule(s) over "
            f"{len(self.results)} scenario(s), {self.total_runs} run(s), "
            f"{'OK' if self.ok else 'VIOLATIONS'}"
        ]
        for result in self.results:
            status = "ok" if result.ok else (
                f"{len(result.violations)} violation(s)"
            )
            lines.append(
                f"  {result.scenario}: {result.schedules} schedule(s), "
                f"{result.perturbable_windows} perturbable window(s), "
                f"{status}"
            )
            for violation in result.violations:
                where = (
                    "identity schedule"
                    if violation.windows is None
                    else f"windows {list(violation.windows)}"
                )
                lines.append(
                    f"    [{violation.rule}] {where}: "
                    + "; ".join(violation.problems)
                )
                for entry in violation.trace:
                    lines.append(
                        f"      window {entry['window']}: "
                        f"sent {entry['sent']} -> delivered "
                        f"{entry['delivered']}"
                    )
        return "\n".join(lines)


def _run_schedule(
    scenario: RaceScenario,
    window_ms: float,
    rule: Optional[RankRule],
    windows: Optional[frozenset],
) -> Tuple[List[str], SchedulePerturber, object]:
    """Build, perturb, drive, check: one schedule = one fresh run."""
    prepared = scenario.build()
    perturber = SchedulePerturber(
        window_ms=window_ms, rule=rule, windows=windows, scope=scenario.scope
    )
    perturber.bind(prepared.engine.network)
    prepared.run()
    return prepared.check(), perturber, _fingerprint(prepared.engine)


def _reorder_trace(
    log: Sequence[SendRecord],
    rule: RankRule,
    windows: Sequence[int],
) -> Tuple[dict, ...]:
    """Render the minimal schedule as send-order vs delivery-order."""
    trace = []
    for window in sorted(windows):
        records = [r for r in log if r.window == window]
        if len(records) < 2:
            continue
        delivered = sorted(
            records,
            key=lambda r: (rule(r.seq, r.src, r.dst, r.type_name) % _BIG, r.seq),
        )
        if [r.seq for r in delivered] == [r.seq for r in records]:
            continue  # rule was a no-op here
        trace.append(
            {
                "window": window,
                "sent": [r.label() for r in records],
                "delivered": [r.label() for r in delivered],
            }
        )
    return tuple(trace)


def _shrink_windows(
    scenario: RaceScenario,
    window_ms: float,
    rule: RankRule,
    windows: List[int],
    budget: int,
) -> Tuple[List[int], List[str], SchedulePerturber, int]:
    """ddmin over the perturbed-window set: find a (1-)minimal subset
    that still violates.  Returns (minimal windows, problems, perturber
    of the final violating run, runs spent)."""
    current = list(windows)
    problems: List[str] = []
    perturber: Optional[SchedulePerturber] = None
    spent = 0
    granularity = 2
    while len(current) >= 2 and spent < budget:
        chunk = max(1, len(current) // granularity)
        reduced = False
        for start in range(0, len(current), chunk):
            if spent >= budget:
                break
            candidate = current[:start] + current[start + chunk:]
            if not candidate:
                continue
            spent += 1
            cand_problems, cand_perturber, _ = _run_schedule(
                scenario, window_ms, rule, frozenset(candidate)
            )
            if cand_problems:
                current = candidate
                problems = cand_problems
                perturber = cand_perturber
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if chunk == 1:
                break
            granularity = min(granularity * 2, len(current))
    if perturber is None:
        # No probe succeeded (or none ran): re-run the full set so the
        # trace reflects a real violating schedule.
        spent += 1
        problems, perturber, _ = _run_schedule(
            scenario, window_ms, rule, frozenset(current)
        )
    return current, problems, perturber, spent


def explore(
    scenarios: Optional[Sequence[RaceScenario]] = None,
    *,
    window_ms: float = 5.0,
    budget: int = 12,
    shrink_budget: int = 8,
    rules: Optional[Dict[str, RankRule]] = None,
) -> ExplorerReport:
    """Explore permuted schedules for each scenario.

    ``budget`` caps the schedules run per scenario (identity and the
    determinism re-run included); ``shrink_budget`` caps the additional
    ddmin probes per violation.  The default budget runs identity
    (twice) plus every global rule; larger budgets add single-window
    deviation schedules, round-robin across rules and windows.
    """
    if scenarios is None:
        scenarios = default_scenarios()
    if rules is None:
        rules = RULES
    results: List[ScenarioResult] = []
    for scenario in scenarios:
        result = ScenarioResult(scenario.name, scenario.description)
        results.append(result)
        win = scenario.window_ms if scenario.window_ms is not None else window_ms

        # 1+2: identity twice — invariants and same-schedule determinism.
        base_problems, base_perturber, base_print = _run_schedule(
            scenario, win, None, None
        )
        again_problems, _, again_print = _run_schedule(
            scenario, win, None, None
        )
        result.runs += 2
        result.schedules += 1
        result.deterministic = (
            base_print == again_print and base_problems == again_problems
        )
        perturbable = base_perturber.perturbable_windows()
        result.perturbable_windows = len(perturbable)
        if base_problems:
            result.violations.append(
                RaceViolation(
                    scenario=scenario.name,
                    rule="identity",
                    windows=None,
                    problems=tuple(base_problems),
                    trace=(),
                )
            )
            # The unperturbed run already fails: permutations of a
            # broken baseline shrink to noise, so stop here.
            continue

        # 3: each rule globally (all windows perturbed).
        remaining = budget - result.runs
        for rule_name in list(rules):
            if remaining <= 0:
                break
            rule = rules[rule_name]
            problems, perturber, _ = _run_schedule(
                scenario, win, rule, None
            )
            result.runs += 1
            result.schedules += 1
            remaining -= 1
            if not problems:
                continue
            windows = perturber.perturbable_windows()
            minimal, min_problems, min_perturber, spent = _shrink_windows(
                scenario, win, rule, windows, shrink_budget
            )
            result.runs += spent
            result.schedules += spent
            result.violations.append(
                RaceViolation(
                    scenario=scenario.name,
                    rule=rule_name,
                    windows=tuple(minimal),
                    problems=tuple(min_problems or problems),
                    trace=_reorder_trace(
                        min_perturber.log, rule, minimal
                    ),
                )
            )

        # 4: single-window deviations with the remaining budget,
        # round-robin across (window, rule) pairs.
        deviations = [
            (window, rule_name)
            for window in perturbable
            for rule_name in rules
        ]
        for window, rule_name in deviations:
            if result.runs >= budget:
                break
            rule = rules[rule_name]
            problems, perturber, _ = _run_schedule(
                scenario, win, rule, frozenset([window])
            )
            result.runs += 1
            result.schedules += 1
            if problems:
                result.violations.append(
                    RaceViolation(
                        scenario=scenario.name,
                        rule=rule_name,
                        windows=(window,),
                        problems=tuple(problems),
                        trace=_reorder_trace(perturber.log, rule, [window]),
                    )
                )
    return ExplorerReport(window_ms=window_ms, results=results)
