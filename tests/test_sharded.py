"""Tests for the sharded multi-server SEVE deployment
(:mod:`repro.core.sharded`): partition geometry, cross-shard runs with
spanning actions and client handoffs, the consistency audit, and the
configuration guards.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core import server_incomplete
from repro.core.action import Action, ActionId, ActionResult, BlindWrite
from repro.core.closure import QueueEntry
from repro.core.elastic import Rebalancer
from repro.core.engine import SeveConfig
from repro.core.handoff import HANDOFF_MARGIN
from repro.core.indexes import WriterIndex
from repro.core.messages import SpanForward, SpanSplice
from repro.core.sharded import (
    RegionPartition,
    ShardedSeveEngine,
    ShardingConfig,
    ShardServer,
    ShardStats,
)
from repro.core.spans import SpanPipeline
from repro.errors import ConfigurationError, ProtocolError
from repro.harness.architectures import build_engine, build_world
from repro.harness.config import SimulationSettings
from repro.harness.runner import run_simulation
from repro.harness.workload import MoveWorkload
from repro.net.faults import CrashWindow, FaultPlan, parse_crash_plan
from repro.types import shard_host_id
from repro.world.geometry import Vec2
from tests.test_golden_runs import RUNS as GOLDEN_RUNS
from tests.test_parallel_backend import EVERY_W, result_key


# ---------------------------------------------------------------------------
# Partition geometry
# ---------------------------------------------------------------------------
def test_shard_of_owns_stripes_and_clamps():
    partition = RegionPartition(100.0, 4)
    assert partition.boundaries == [25.0, 50.0, 75.0]
    assert partition.shard_of(0.0) == 0
    assert partition.shard_of(24.999) == 0
    assert partition.shard_of(25.0) == 1
    assert partition.shard_of(99.0) == 3
    # Outside the world clamps to the border stripes.
    assert partition.shard_of(-50.0) == 0
    assert partition.shard_of(250.0) == 3


def test_bounds_tile_the_world():
    partition = RegionPartition(120.0, 3)
    intervals = [partition.bounds(k) for k in range(3)]
    assert intervals == [(0.0, 40.0), (40.0, 80.0), (80.0, 120.0)]


def test_shards_touching_spans_the_influence_disc():
    partition = RegionPartition(100.0, 4)
    assert partition.shards_touching(50.0, 0.0) == (2,)
    assert partition.shards_touching(24.0, 3.0) == (0, 1)
    assert partition.shards_touching(50.0, 60.0) == (0, 1, 2, 3)
    # Disc entirely outside the world still clamps to a real stripe.
    assert partition.shards_touching(-20.0, 5.0) == (0,)


def test_home_with_hysteresis_tolerates_border_wobble():
    partition = RegionPartition(100.0, 2)
    # Inside the margin around the current stripe: stay home.
    assert partition.home_with_hysteresis(52.0, 0, margin=5.0) == 0
    assert partition.home_with_hysteresis(48.0, 1, margin=5.0) == 1
    # Beyond the margin: migrate.
    assert partition.home_with_hysteresis(56.0, 0, margin=5.0) == 1
    assert partition.home_with_hysteresis(44.0, 1, margin=5.0) == 0


def test_sharding_config_validates():
    with pytest.raises(ConfigurationError, match="shards >= 2"):
        ShardingConfig(shards=1)  # one serializer is the classic engine
    with pytest.raises(ConfigurationError):
        ShardingConfig(world_width=0.0)
    with pytest.raises(ConfigurationError):
        RegionPartition(100.0, 0)
    with pytest.raises(ConfigurationError):
        RegionPartition(-1.0, 2)


#: A small clustered world shared by the crash and rejoin tests below.
DIFF = SimulationSettings(
    num_clients=8,
    num_walls=120,
    moves_per_client=6,
    world_width=300.0,
    world_height=300.0,
    spawn="cluster",
    spawn_extent=100.0,
    rtt_ms=150.0,
    bandwidth_bps=None,
    move_interval_ms=200.0,
    cost_model="fixed",
    move_cost_ms=1.0,
    eval_overhead_ms=0.1,
    seed=11,
)

LOSSY = FaultPlan(loss_rate=0.05, jitter_ms=40.0, duplicate_rate=0.02, seed=7)


# ---------------------------------------------------------------------------
# Cross-shard runs: spans, handoffs, and the consistency audit
# ---------------------------------------------------------------------------
#: Cluster spawn at the world centre straddles every K=2/K=4 border, so
#: most moves are spanning actions and several avatars drift across.
SHARDED = SimulationSettings(
    num_clients=12,
    num_walls=200,
    moves_per_client=24,
    world_width=1000.0,
    world_height=1000.0,
    spawn="cluster",
    spawn_extent=120.0,
    rtt_ms=150.0,
    bandwidth_bps=None,
    move_interval_ms=250.0,
    cost_model="fixed",
    move_cost_ms=1.0,
    eval_overhead_ms=0.1,
    seed=11,
    shards=2,
)


def _span_and_handoff_counts(result):
    spans = sum(row["spans_spliced"] for row in result.shard_rows)
    out = sum(row["handoffs_out"] for row in result.shard_rows)
    into = sum(row["handoffs_in"] for row in result.shard_rows)
    return spans, out, into


def test_two_shards_serialize_spans_and_hand_off_clients():
    result = run_simulation("seve", SHARDED)
    spans, out, into = _span_and_handoff_counts(result)
    assert spans > 0
    assert out > 0 and out == into  # every begun handoff completed
    assert result.shard_audit is not None
    assert result.shard_audit.consistent, result.shard_audit.summary()
    assert result.shard_audit.order_violations == []
    assert result.shard_audit.span_observations > 0
    assert result.consistency is not None and result.consistency.consistent
    # Serialization really is distributed: both shards committed work.
    assert all(row["committed"] > 0 for row in result.shard_rows)


@pytest.mark.slow
@pytest.mark.faults
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_run_survives_lossy_transport(shards):
    settings = SHARDED.with_(shards=shards, fault_plan=LOSSY)
    result = run_simulation("seve", settings)
    spans, out, into = _span_and_handoff_counts(result)
    assert spans > 0
    assert out == into
    assert result.messages_dropped > 0  # the plan actually injected
    assert result.retransmissions > 0
    assert result.shard_audit.consistent, result.shard_audit.summary()


@pytest.mark.slow
def test_more_shards_spread_the_serialization_load():
    """The scaling signal behind Section VII: with spread-out clients
    the per-shard serialized count drops as K grows."""
    settings = SHARDED.with_(
        spawn="uniform", num_clients=16, moves_per_client=16
    )
    per_shard_max = {}
    for shards in (1, 4):
        result = run_simulation("seve", settings.with_(shards=shards))
        if result.shard_audit is not None:
            assert result.shard_audit.consistent
        per_shard_max[shards] = max(
            row["serialized"] for row in (result.shard_rows or [{"serialized": 0}])
        ) if result.shard_rows else result.moves_submitted
    assert per_shard_max[4] < per_shard_max[1]


def test_all_clients_remain_attached_after_handoffs():
    world = build_world(SHARDED)
    engine = build_engine("seve", SHARDED, world)
    workload = MoveWorkload(engine, world, SHARDED)
    horizon = SHARDED.workload_duration_ms + 2 * SHARDED.move_interval_ms
    engine.start()
    workload.install()
    engine.run(until=horizon)
    engine.run_to_quiescence()
    assert isinstance(engine, ShardedSeveEngine)
    for client_id in engine.clients:
        assert engine.shard_of_client(client_id) is not None
        assert not engine.clients[client_id]._migrating
    total_in = sum(
        server.shard_stats.handoffs_in for server in engine.shard_servers
    )
    total_out = sum(
        server.shard_stats.handoffs_out for server in engine.shard_servers
    )
    assert total_in > 0 and total_in == total_out
    # Each adopted client now lives in the stripe that owns its
    # committed avatar position (modulo the hysteresis margin).
    for client_id in engine.clients:
        shard = engine.shard_of_client(client_id)
        obj = engine.shard_states[shard].get(engine.world.avatar_of(client_id))
        assert (
            engine.partition.home_with_hysteresis(
                float(obj["x"]), shard, HANDOFF_MARGIN
            )
            == shard
        )


# ---------------------------------------------------------------------------
# Who evaluates a span: its owner's clients run the code, and so do a peer's
# when the splice proves the span's inputs there equal to the owner's
# ---------------------------------------------------------------------------
def _record_span_traffic(monkeypatch):
    """Patch the shard servers to record, per (shard, action id), each
    peer splice's verdict and each span's committed inputs (the store
    as the entry leaves the queue), each span's owner, every span entry
    wired to a client and every closure that deferred."""
    log = dict(verdicts={}, inputs={}, owners={}, wired=[], deferrals=[])
    verdict = SpanPipeline._inputs_match_owner
    resolved = ShardServer._note_resolved
    closure_entries = ShardServer._closure_entries
    walk = server_incomplete.transitive_closure

    def recording_verdict(unit, splice):
        holds = verdict(unit, splice)
        log["verdicts"][unit.view.shard_index, splice.action.action_id] = holds
        log["owners"][splice.action.action_id] = splice.owner
        return holds

    def recording_resolved(server, entry):
        if entry.gsn >= 0 and entry.valid is not False:
            reads = sorted(entry.action.reads)
            log["inputs"][server.shard_index, entry.action.action_id] = [
                server.state.get(oid).as_dict() for oid in reads
            ]
        resolved(server, entry)

    def recording_closure(server, client_id, candidate):
        wired, cost = closure_entries(server, client_id, candidate)
        for ordered in wired or ():
            entry = server._entries[ordered.pos - server._base_pos] if ordered.pos >= 0 else None
            if entry is not None and entry.gsn >= 0:
                log["wired"].append((server.shard_index, entry, client_id, ordered.action))
        return wired, cost

    def recording_walk(entries, index, client_id, *, high_water=-1, **kwargs):
        chain, seed = walk(entries, index, client_id, high_water=high_water, **kwargs)
        if chain is None:
            log["deferrals"].append(
                [
                    e
                    for e in entries
                    if (e.span_value and e.span_result is None)
                    or (e.pos < high_water and client_id not in e.sent and e.valid is not False)
                ]
            )
        return chain, seed

    monkeypatch.setattr(SpanPipeline, "_inputs_match_owner", recording_verdict)
    monkeypatch.setattr(ShardServer, "_note_resolved", recording_resolved)
    monkeypatch.setattr(ShardServer, "_closure_entries", recording_closure)
    monkeypatch.setattr(server_incomplete, "transitive_closure", recording_walk)
    return log


def test_owner_clients_get_span_code_and_peer_clients_get_values(monkeypatch):
    # Peer clients get values exactly when the verdict fails, and code
    # when it holds.  The golden cluster straddles the x = 500 stripe
    # border at K = 4; with 24 clients some peer splices fail it.
    log = _record_span_traffic(monkeypatch)
    result = run_simulation("seve", GOLDEN_RUNS["seve_k4_single"].with_(num_clients=24))
    assert result.shard_audit.consistent, result.shard_audit.summary()

    verdicts = log["verdicts"]
    for shard, entry, client, action in log["wired"]:
        action_id = entry.action.action_id
        if entry.span_owner_shard == shard:
            assert action is entry.action
        elif verdicts[shard, action_id]:
            assert not entry.span_value and action is entry.action
        else:
            assert isinstance(action, BlindWrite) and action.origin == action_id
    # The verdict is sound: every span a peer sent as code read there
    # exactly the committed inputs it read on its owner's stream.
    inputs = log["inputs"]
    code = [key for key, holds in verdicts.items() if holds]
    for shard, action_id in code:
        owner = log["owners"][action_id]
        assert inputs[shard, action_id] == inputs[owner, action_id]
    # Not vacuous: owned spans reached clients other than their
    # originators as code, peers' clients got code, and got values.
    assert code and not all(verdicts.values())
    wired = log["wired"]
    assert any(e.span_owner_shard == s and c != e.action.client_id for s, e, c, _ in wired)
    assert any(e.span_owner_shard != s and a is e.action for s, e, _, a in wired)
    assert any(isinstance(a, BlindWrite) for _, _, _, a in wired)
    # A closure defers only on a value entry whose result is unknown, or
    # on a late entry.
    assert all(log["deferrals"])


class _Span(Action):
    """A move of ``mover`` that reads its ``neighbours``' avatars."""

    def __init__(self, mover, seq, *neighbours):
        avatar = f"avatar:{mover}"
        reads = {avatar, *(f"avatar:{n}" for n in neighbours)}
        super().__init__(ActionId(mover, seq), reads=frozenset(reads), writes=frozenset({avatar}))

    def compute(self, store):
        return {}


class Stripe:
    """One fake shard and its span pipeline's view, with no engine: what
    the view reads are plain attributes, the queue is a list with its
    writer index, and what the pipeline sends is recorded in ``sent``.
    An inert :class:`Rebalancer` keeps the last-writer stamps."""

    def __init__(self, index: int, clients) -> None:
        self.shard_index = index
        self.partition = RegionPartition(900.0, 3)
        self.dead: set = set()
        self.clients = dict.fromkeys(clients)
        self.avatar_owner = {f"avatar:{client}": client for client in clients}
        self.stats = ShardStats()
        self.now, self.sim, self.recovery = 0.0, SimpleNamespace(obs=None), None
        self.speaks_at_will = False
        self.lease = SimpleNamespace(is_holder=False, observe_gsn=lambda gsn: None)
        self.host = SimpleNamespace(execute=lambda cost_ms, job: None)
        self.entries: list = []
        self.base_pos = 0
        self.writer_index = WriterIndex()
        self.sent: list = []
        self.rebalancer = Rebalancer(None, self)
        self.unit = SpanPipeline(self, 0.0)

    def to_holder(self, message) -> None:
        self.sent.append(message)

    def send_peer(self, shard: int, message) -> None:
        self.sent.append((shard, message))

    def admit(self, client, action) -> None:
        """The server's local admission (Information Bound validation
        still to come)."""
        if client in self.clients:
            self.enqueue(action, False)

    def enqueue(self, action, valid: bool) -> QueueEntry:
        pos = self.base_pos + len(self.entries)
        entry = QueueEntry(pos, action, self.now, valid=valid or None)
        self.entries.append(entry)
        self.writer_index.note_enqueued(pos, action.writes)
        return entry

    def drop(self, entry) -> None:
        entry.valid = False

    def advance(self) -> None:
        """The commit frontier, as far as the pipeline and the stamps
        see it."""
        while self.entries and self.entries[0].committed_ready:
            entry = self.entries.pop(0)
            self.base_pos = entry.pos + 1
            self.writer_index.note_dequeued(entry.action.writes, self.base_pos)
            self.rebalancer.note_resolved(entry)
            self.unit.resolved(entry)

    def adopt(self, client) -> None:
        """What ``ShardServer._adopt`` does that the verdict reads: the
        client is attached, and its avatar's stamp is dirty."""
        self.clients[client] = None
        self.avatar_owner[f"avatar:{client}"] = client
        self.rebalancer.mark_dirty(f"avatar:{client}")


#: What the span pipeline reads of the view; the rest of it is the
#: rebalancer's and the handoff barrier's (tests/test_rebalancer.py).
SPAN_VIEW = {
    "shard_index", "partition", "dead", "clients", "stats", "now", "sim",
    "rebalancer", "lease", "speaks_at_will", "host", "recovery",
    "entries", "base_pos", "writer_index", "avatar_owner", "send_peer",
    "to_holder", "admit", "enqueue", "drop", "advance",
}


def test_the_fake_stripe_shows_what_the_span_pipeline_reads():
    fake = Stripe(0, ())
    assert all(hasattr(fake, name) for name in SPAN_VIEW)


@pytest.fixture
def stripes():
    """Three fake shards of a 900-wide world: clients 2, 5 and 8 are
    attached to shard 0, 1, 3, 4 and 7 to shard 1, and 0, 6, 9, 10, 11
    to shard 2.  ``splice(shard, owner, action)`` splices ``action``
    there and returns whether that shard's clients get its code."""
    shards = [Stripe(0, [2, 5, 8]), Stripe(1, [1, 3, 4, 7]), Stripe(2, [0, 6, 9, 10, 11])]
    gsns = iter(range(100))

    def splice(shard, owner, action):
        stripe = shards[shard]
        message = SpanSplice(next(gsns), owner, (0, 1, 2), action)
        stripe.unit.on_splice(shard_host_id(owner), message)
        return not stripe.entries[-1].span_value

    return shards, splice


def test_a_peer_gets_the_code_of_a_run_of_the_movers_spans(stripes):
    _, splice = stripes
    assert splice(1, 0, _Span(2, 0, 3))  # neighbour 3 is attached to shard 1
    assert splice(1, 0, _Span(2, 1, 3, 4))
    assert splice(1, 1, _Span(3, 0))  # code on its owner by ownership


def test_a_mover_whose_previous_action_was_local_gets_values(stripes):
    _, splice = stripes
    # (2, 0) was local on shard 0, so shard 1's stream never held it.
    assert not splice(1, 0, _Span(2, 1, 3))
    assert not splice(1, 0, _Span(2, 2, 3))


@pytest.mark.parametrize("neighbour", [5, 0], ids=["owner", "third-shard"])
def test_a_neighbour_homed_elsewhere_gets_values(stripes, neighbour):
    _, splice = stripes
    assert not splice(1, 0, _Span(2, 0, 3, neighbour))


def test_a_queued_local_writer_of_an_input_gets_values(stripes):
    shards, splice = stripes
    shards[1].admit(3, _Span(3, 0))
    assert not splice(1, 0, _Span(2, 0, 3))


def test_an_adopted_client_is_dirty_until_one_of_its_spans_commits(stripes):
    shards, splice = stripes
    stripe = shards[1]
    stripe.adopt(8)
    assert splice(1, 1, _Span(8, 0))  # owned here, involving shard 0: code
    assert not splice(1, 0, _Span(2, 0, 8))  # its avatar's stamp is dirty
    (owned, _) = stripe.entries
    owned.record_completion(ActionResult.of({"avatar:8": {"x": 450.0}}), 8)
    stripe.advance()
    assert splice(1, 0, _Span(2, 1, 8))


class _Step(Action):
    """A move of ``mover`` at x, with a 5-unit influence disc."""

    def __init__(self, mover, seq, x):
        avatar = frozenset({f"avatar:{mover}"})
        super().__init__(
            ActionId(mover, seq), reads=avatar, writes=avatar, position=Vec2(x, 0.0), radius=5.0
        )

    def compute(self, store):
        return {}


def test_a_submission_behind_an_unspliced_span_waits_for_the_owner_splice():
    stripe = Stripe(0, [2])
    unit = stripe.unit
    span, local, later = _Step(2, 0, 298.0), _Step(2, 1, 100.0), _Step(2, 2, 100.0)
    unit.admit(2, span)  # crosses the x = 300 border: forwarded
    assert stripe.sent == [SpanForward(0, (0, 1), span)] and stripe.entries == []
    unit.admit(2, local)  # held behind the span
    assert stripe.entries == [] and unit.held == {2: [local]}
    unit.on_splice(shard_host_id(0), SpanSplice(0, 0, (0, 1), span))
    assert [(e.pos, e.action) for e in stripe.entries] == [(0, span), (1, local)]
    assert unit.held == {} and unit.unspliced == {}
    unit.admit(2, later)  # no span in flight: admitted at once
    assert stripe.entries[-1].action is later and len(stripe.sent) == 1


def test_no_span_goes_out_as_code_in_a_run_with_a_client_crash_plan(monkeypatch):
    log = _record_span_traffic(monkeypatch)
    plan = FaultPlan(crashes=parse_crash_plan("3@1500:4000"))
    result = run_simulation("seve", GOLDEN_RUNS["seve_k4_single"].with_(fault_plan=plan))
    assert result.shard_audit.consistent, result.shard_audit.summary()
    assert not any(log["verdicts"].values())
    peers = [action for shard, entry, _, action in log["wired"] if entry.span_owner_shard != shard]
    assert peers and all(isinstance(action, BlindWrite) for action in peers)


@pytest.mark.parametrize("backend, workers", EVERY_W)
def test_peer_clients_reports_of_span_code_agree_with_the_span_result(
    backend, workers, monkeypatch, tmp_path
):
    # A Theorem 1 tripwire: under fault tolerance a peer client that got
    # a span's code reports what it computed, and record_completion
    # raises a ProtocolError if that differs from the owner's
    # SpanResult.  Each cross-check is one line in a file, so that
    # forked workers count too.
    checks = tmp_path / "checks"
    record = QueueEntry.record_completion

    def counting(entry, result, reporter):
        # A SpanResult's reporter is its owner's (negative) host id.
        if entry.gsn >= 0 and not entry.span_value and entry.completion is not None:
            if (reporter < 0) != any(r < 0 for r in entry.reporters):
                with open(checks, "a") as out:
                    out.write(f"{entry.action.action_id}\n")
        record(entry, result, reporter)

    monkeypatch.setattr(QueueEntry, "record_completion", counting)
    settings = SimulationSettings(
        num_clients=48, num_walls=500, moves_per_client=3, world_width=600.0,
        spawn="uniform", shards=4, seed=1001, fault_tolerant=True,
        backend=backend, workers=workers,
    )  # fmt: skip
    result = run_simulation("seve", settings)
    assert result.shard_audit.consistent, result.shard_audit.summary()
    assert checks.exists() and checks.read_text().count("\n") >= 1


def test_a_span_an_owner_client_committed_still_confirms_its_originator():
    # Fault tolerance lets any owner client's report commit a span; one
    # whose originator was still waiting on an older peer span gets a
    # CommitNotice, or the run would wait out its drain deadline.
    settings = GOLDEN_RUNS["seve_k4_replicated_failover"]
    result = run_simulation("seve", settings)
    assert result.responses_observed == result.moves_submitted
    assert result.virtual_ms < settings.submit_horizon_ms + settings.drain_ms
    assert result.shard_audit.consistent, result.shard_audit.summary()


# ---------------------------------------------------------------------------
# Configuration guards
# ---------------------------------------------------------------------------
def test_shards_require_push_mode():
    settings = DIFF.with_(shards=2)
    for architecture in ("incomplete", "seve-basic", "central", "broadcast"):
        with pytest.raises(ConfigurationError):
            build_engine(architecture, settings)


def test_shards_accept_crash_plans_and_liveness():
    """Regression: crash plans and liveness configs are legal at every
    K (docs/control_plane.md) — the old shard-0-SPOF rejections are
    gone for good."""
    crashing = FaultPlan(
        loss_rate=0.01, seed=3, crashes=(CrashWindow(0, 500.0, 1500.0),)
    )
    engine = build_engine("seve", DIFF.with_(shards=2, fault_plan=crashing))
    assert isinstance(engine, ShardedSeveEngine)
    world = build_world(DIFF)
    config = SeveConfig(mode="seve", rtt_ms=150.0, fault_plan=crashing)
    engine = ShardedSeveEngine(
        world,
        DIFF.num_clients,
        config,
        sharding=ShardingConfig(shards=2, world_width=DIFF.world_width),
    )
    assert engine.liveness


def test_shard_crash_window_guards():
    """The crash-plan rules, written once and checked with the run's
    settings: every target exists, and one shard stays up at every
    crash (a restart at the instant of another crash does not count)."""
    for shards, plan, offender in (
        (1, "s0@500:1500", "every shard down at 500 ms (s0@500:1500)"),
        (2, "s5@500", "'s5@500' targets shard 5"),
        (2, "9@500", "'9@500' targets client 9"),
        (2, "s0@100,s1@200", "every shard down at 200 ms"),
        (2, "s0@100:300,s1@200:400", "every shard down at 200 ms"),
        (2, "s1@300:400,s0@100:300", "every shard down at 300 ms"),
    ):
        crashes = FaultPlan(crashes=parse_crash_plan(plan))
        with pytest.raises(ConfigurationError) as excinfo:
            DIFF.with_(shards=shards, fault_plan=crashes)
        assert offender in str(excinfo.value), plan
    # A crash after the other shard's restart leaves one shard up.
    DIFF.with_(shards=2, fault_plan=FaultPlan(crashes=parse_crash_plan(
        "s0@100:300,s1@301:400"
    )))


@pytest.mark.parametrize(
    "plan, timers",
    [(None, 0), (FaultPlan(crashes=parse_crash_plan("3@500")), 0),
     (FaultPlan(crashes=parse_crash_plan("s2@500")), 2)],
    ids=["fault-free", "client-only", "shard-crash"],
)
def test_the_lease_is_armed_exactly_when_the_plan_crashes_a_shard(plan, timers):
    engine = build_engine("seve", DIFF.with_(shards=4, fault_plan=plan))
    for server in engine.shard_servers:
        assert len(server.lease.start()) == timers


def test_sharded_engine_rejects_pull_modes():
    world = build_world(DIFF)
    config = SeveConfig(mode="incomplete", rtt_ms=150.0)
    with pytest.raises(ConfigurationError):
        ShardedSeveEngine(
            world,
            DIFF.num_clients,
            config,
            sharding=ShardingConfig(shards=2, world_width=DIFF.world_width),
        )


def test_settings_validate_shard_count():
    with pytest.raises(ConfigurationError):
        SimulationSettings(shards=0)


# ---------------------------------------------------------------------------
# Crash fault tolerance and lease failover (docs/control_plane.md)
# ---------------------------------------------------------------------------
#: Small clustered deployment whose centre-spawn keeps spanning actions
#: in flight throughout — crashes land mid-span by construction.
FAULTED = SimulationSettings(
    num_clients=12,
    num_walls=60,
    moves_per_client=10,
    world_width=400.0,
    world_height=300.0,
    spawn="cluster",
    spawn_extent=90.0,
    rtt_ms=150.0,
    bandwidth_bps=None,
    move_interval_ms=200.0,
    cost_model="fixed",
    move_cost_ms=1.0,
    eval_overhead_ms=0.1,
    seed=13,
)


def _assert_survivors_consistent(result):
    assert result.consistency is not None and result.consistency.consistent
    assert result.shard_audit is not None
    assert result.shard_audit.consistent, result.shard_audit.summary()
    assert result.shard_audit.order_violations == []
    assert result.responses_observed > 0


@pytest.mark.parametrize(
    "plan, raises",
    [(None, True), (FaultPlan(crashes=parse_crash_plan("s1@1500:3500")), False)],
    ids=["no-shard-crash", "shard-crash"],
)
def test_misrouted_span_forward_is_an_error_without_shard_crashes(plan, raises):
    """Every shard holds the lease state in every run.  A SpanForward
    reaching a non-holder is stale routing while a failover can be in
    flight (a plan with shard crashes: ignored, the owner re-forwards
    on the grant), but without shard crashes the lease cannot move, so
    nothing legitimate ever sends one: it stays a ProtocolError."""
    forward = SpanForward(0, (0, 1), BlindWrite.from_server(0, {}))
    engine = build_engine("seve", FAULTED.with_(shards=2, fault_plan=plan))
    holder, other = engine.shard_servers
    assert (holder.lease.term, holder.lease.holder) == (0, 0)
    assert holder.lease.is_holder and not other.lease.is_holder
    if raises:
        with pytest.raises(ProtocolError, match="only shard 0 sequences"):
            other._on_message(shard_host_id(0), forward)
    else:
        other._on_message(shard_host_id(0), forward)
    assert other.shard_stats.spans_sequenced == 0


@pytest.mark.faults
@pytest.mark.parametrize("shards", [2, 4])
def test_shard_crash_and_restart_recovers(shards):
    """A shard host dies mid-span-flight and restarts from its
    checkpoint+WAL; survivors adopt its span obligations and the
    honest-survivor audit stays green at K=2 and K=4."""
    plan = FaultPlan(
        seed=7, crashes=(CrashWindow(-1, 1500.0, 3500.0, shard_index=1),)
    )
    result = run_simulation(
        "seve", FAULTED.with_(shards=shards, fault_plan=plan)
    )
    _assert_survivors_consistent(result)


@pytest.mark.faults
def test_permanent_sequencer_crash_fails_over():
    """Killing shard 0 for good: the plan's shard crash arms the lease,
    its quorum elects a new sequencer and the run completes with audits
    green — the exact run a pinned sequencer could never survive."""
    plan = FaultPlan(
        seed=7, crashes=(CrashWindow(-1, 2000.0, None, shard_index=0),)
    )
    result = run_simulation("seve", FAULTED.with_(shards=4, fault_plan=plan))
    _assert_survivors_consistent(result)
    assert result.failovers >= 1
    first = result.failover_events[0]
    assert first["holder"] != 0
    assert first["at_ms"] >= 2000.0


@pytest.mark.faults
def test_client_crash_and_reconnect_under_loss():
    """Client churn on a lossy wire at K=2: one permanent death, one
    crash+rejoin via ClientHello; the survivors stay consistent."""
    plan = FaultPlan(
        loss_rate=0.02,
        seed=5,
        crashes=(
            CrashWindow(2, 1200.0, 2600.0),
            CrashWindow(5, 1800.0, None),
        ),
    )
    result = run_simulation(
        "seve", FAULTED.with_(shards=2, fault_plan=plan)
    )
    _assert_survivors_consistent(result)
    assert result.clients_evicted >= 1


@pytest.mark.slow
@pytest.mark.faults
def test_shard_crash_during_elastic_epochs():
    """Shard crash + restart while the elastic rebalancer is live: the
    drain quorum shrinks to the survivors, the restarted shard catches
    up on the committed partition version, and audits stay green."""
    plan = FaultPlan(
        seed=9, crashes=(CrashWindow(-1, 2500.0, 5000.0, shard_index=1),)
    )
    result = run_simulation(
        "seve",
        FAULTED.with_(
            num_walls=60,
            moves_per_client=12,
            shards=4,
            fault_plan=plan,
            elastic=True,
            elastic_interval_ms=400.0,
            elastic_hysteresis=2,
        ),
    )
    _assert_survivors_consistent(result)


@pytest.mark.slow
@pytest.mark.faults
def test_backends_agree_under_shard_crash():
    """The acceptance scenario: the same shard-crash plan at K=4 as one
    partition, as four inline partitions, and on the multiprocessing
    backend — every audit is green and the three are byte-identical on
    the whole result surface (bar the dispatched-event count, which
    grows with W: every replica schedules the plan's crash windows)."""
    plan = FaultPlan(
        seed=7, crashes=(CrashWindow(-1, 1500.0, 3500.0, shard_index=2),)
    )
    base = FAULTED.with_(shards=4, fault_plan=plan)
    one = run_simulation("seve", base)
    many = run_simulation("seve", base.with_(workers=4))
    parallel = run_simulation(
        "seve", base.with_(backend="parallel", workers=4)
    )
    for result in (one, many, parallel):
        _assert_survivors_consistent(result)
    assert (
        result_key(one, events=False)
        == result_key(many, events=False)
        == result_key(parallel, events=False)
    )
    assert many.events == parallel.events


@pytest.mark.faults
@pytest.mark.parametrize("workers", [0, 2])
def test_evictions_are_counted_on_every_shard(workers):
    """Two clients homed on different shards crash for good; each is
    evicted by its own shard's liveness sweep, and the run reports both
    (it used to read shard 0's counter only)."""
    from tests.test_golden_runs import BASE

    plan = FaultPlan(seed=3, crashes=parse_crash_plan("3@1500,5@1600"))
    result = run_simulation(
        "seve", BASE.with_(shards=4, fault_plan=plan, workers=workers)
    )
    assert result.clients_evicted == 2
    _assert_survivors_consistent(result)
