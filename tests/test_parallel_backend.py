"""The sharded drive: partition independence and unit behavior.

The load-bearing guarantee (docs/parallel.md): every sharded run goes
through one window coordinator, and for the same settings and seed the
partition count W and the backend change wall-clock only — results are
not statistically close but *identical* on every deterministic output,
whether one inline partition, several inline partitions, or worker
processes, forked or spawned, step the replicas.  Any divergence is an
ownership, transport or merge bug, never "expected noise".

Multiprocessing note: workers fork on single-threaded Linux and spawn
elsewhere (:func:`~repro.net.backend.start_context`).  A spawned worker
re-imports ``__main__``; under pytest that is pytest's own entry point,
which is importable.  ``test_fork_matches_spawn_matches_inproc`` forces
spawn, so the spawn path runs on Linux too.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import multiprocessing
import os
import re
import signal
import sys
import threading

import pytest

from repro.adversary import AdversaryPlan, parse_adversary_plan
from repro.core.messages import Completion, SpanForward, SubmitAction
from repro.core.sharded import ShardedSeveEngine, ShardServer
from repro.errors import ConfigurationError, SimulationError
from repro.harness.config import SimulationSettings
from repro.harness.runner import run_simulation
from repro.net.backend import (
    WINDOW_ENDS,
    BarrierReport,
    PartitionReplica,
    _drive,
    resolve_workers,
    start_context,
    worker_of_shard,
)
from repro.net.faults import FaultPlan, parse_crash_plan
from repro.net.worker import partition_worker_main
from repro.types import shard_host_id

#: Small-but-sharded workload: big enough to exercise cross-shard span
#: forwarding, handoff, and the sequencer; small enough to keep the
#: worker-process differentials fast.
BASE = dict(
    num_clients=8,
    num_walls=120,
    moves_per_client=6,
    world_width=300.0,
    world_height=300.0,
    rtt_ms=150.0,
    bandwidth_bps=None,
    move_interval_ms=200.0,
    cost_model="fixed",
    move_cost_ms=1.0,
    eval_overhead_ms=0.1,
    seed=11,
)

LOSSY = FaultPlan(loss_rate=0.05, jitter_ms=40.0, duplicate_rate=0.02, seed=7)


def result_key(r, *, events=True):
    """Every deterministic output of a run (wall clock excluded).

    ``events=False`` leaves out the dispatched-event count: every
    replica schedules every crash window of the plan, so that count
    (alone) grows with W on plans that have any.
    """
    return (
        r.moves_submitted,
        r.responses_observed,
        tuple(
            round(x, 9)
            for x in (r.response.mean, r.response.p95, r.response.stddev)
        ),
        round(r.total_traffic_kb, 9),
        round(r.client_traffic_kb, 9),
        round(r.server_traffic_kb, 9),
        r.drop_percent,
        r.virtual_ms,
        r.events if events else None,
        r.total_cpu_ms,
        r.closure_cpu_ms,
        r.messages_dropped,
        r.messages_duplicated,
        r.retransmissions,
        r.clients_evicted,
        tuple(
            tuple(sorted(row.items())) for row in (r.shard_rows or ())
        ),
        r.rebalance_events,
        r.failover_events,
        None if r.consistency is None else r.consistency.consistent,
        None if r.shard_audit is None else r.shard_audit.consistent,
    )


def run(backend, plan=None, **overrides):
    settings = SimulationSettings(
        **{**BASE, **overrides}, backend=backend, fault_plan=plan
    )
    return run_simulation("seve", settings)


@pytest.fixture
def one_minute():
    """Fail the test, instead of stalling the suite, if it hangs."""

    def expired(signum, frame):
        raise TimeoutError("the parallel run hung")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Unit behavior: worker resolution and shard ownership
# ----------------------------------------------------------------------
def test_resolve_workers():
    def settings(**kw):
        return SimulationSettings(**{**BASE, **kw})

    # inproc default: one partition.
    assert resolve_workers(settings(shards=4)) == 1
    # parallel default: one worker per shard.
    assert resolve_workers(settings(shards=4, backend="parallel")) == 4
    # explicit worker counts clamp to the shard count.
    assert resolve_workers(settings(shards=4, workers=2)) == 2
    assert resolve_workers(settings(shards=2, workers=8)) == 2
    assert (
        resolve_workers(settings(shards=4, backend="parallel", workers=3))
        == 3
    )


def test_worker_of_shard_partitions_contiguously():
    for shards in (1, 2, 3, 4, 8):
        for workers in range(1, shards + 1):
            owners = [worker_of_shard(k, shards, workers) for k in range(shards)]
            # every worker owns at least one shard, in non-decreasing order
            assert sorted(set(owners)) == list(range(workers))
            assert owners == sorted(owners)


def test_partitioned_run_requires_multiple_shards():
    from repro.net.backend import run_partitioned

    with pytest.raises(ConfigurationError):
        run_partitioned("seve", SimulationSettings(**BASE, shards=1), parallel=False)


@pytest.mark.skipif(sys.platform != "linux", reason="fork is the Linux path")
def test_start_context_forks_only_on_single_threaded_linux(monkeypatch):
    # Fork skips the worker's interpreter boot and imports; it is safe
    # only on Linux and only while no other thread could hold a lock
    # the child would inherit mid-hold.
    assert threading.active_count() == 1
    assert start_context().get_start_method() == "fork"

    release = threading.Event()
    second = threading.Thread(target=release.wait)
    second.start()
    try:
        assert start_context().get_start_method() == "spawn"
    finally:
        release.set()
        second.join(timeout=10)
    assert not second.is_alive()

    monkeypatch.setattr(sys, "platform", "darwin")
    assert start_context().get_start_method() == "spawn"


# ----------------------------------------------------------------------
# Partition independence: W = 1 == W > 1 == worker processes, byte for byte
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "shards, workers",
    # (4, 2): each partition owns two shards; (4, 3): uneven stripes
    # (2 + 1 + 1 shards) and a lead with two siblings.
    [(2, 2), (4, 4), (4, 2), (4, 3)],
)
def test_one_partition_matches_many_matches_parallel(shards, workers):
    one = run("inproc", shards=shards)
    many = run("inproc", shards=shards, workers=workers)
    parallel = run("parallel", shards=shards, workers=workers)
    assert result_key(one) == result_key(many) == result_key(parallel)
    assert one.shard_audit.consistent


def test_parallel_matches_inproc_k2_lossy():
    # Wire faults are drawn from one seeded stream per replica, in send
    # order, so a lossy plan samples differently for each W (every W is
    # a valid run of the plan); for equal W the backends still agree.
    inproc = run("inproc", plan=LOSSY, workers=2, shards=2)
    parallel = run("parallel", plan=LOSSY, workers=2, shards=2)
    assert result_key(inproc) == result_key(parallel)
    assert parallel.messages_dropped > 0  # the plan actually fired


def test_parallel_matches_inproc_k4_lossy_three_siblings():
    inproc = run("inproc", plan=LOSSY, workers=4, shards=4)
    parallel = run("parallel", plan=LOSSY, workers=4, shards=4)
    assert result_key(inproc) == result_key(parallel)
    assert parallel.messages_dropped > 0


@pytest.mark.parametrize("degenerate", [dict(shards=1), dict(shards=2, workers=1)])
def test_parallel_with_nothing_to_partition_runs_in_process(
    degenerate, monkeypatch
):
    # One shard, or one resolved worker: the parallel backend steps the
    # run right here — same result as inproc, and no worker process is
    # ever started.
    from repro.net import backend

    def no_start():
        raise AssertionError("degenerate parallel run started a process")

    monkeypatch.setattr(backend, "start_context", no_start)
    inproc = run("inproc", **degenerate)
    parallel = run("parallel", **degenerate)
    assert result_key(inproc) == result_key(parallel)


# ----------------------------------------------------------------------
# Ownership: a replica builds its slice, and the rest are address stubs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards, workers", [(4, 2), (4, 3)])
def test_a_replica_builds_only_what_it_owns(shards, workers):
    settings = SimulationSettings(**BASE, shards=shards, workers=workers)
    whole = PartitionReplica("seve", settings, 0, 1)
    homes = [whole.engine.home_shard(c) for c in range(BASE["num_clients"])]
    owners = []
    for partition in range(workers):
        replica = PartitionReplica("seve", settings, partition, workers)
        engine, owned = replica.engine, replica.owned_shards
        assert replica.owned_clients == [
            client_id
            for client_id, home in enumerate(homes)
            if worker_of_shard(home, shards, workers) == partition
        ]
        assert sorted(engine.clients) == replica.owned_clients
        assert sorted(engine.client_hosts) == replica.owned_clients
        for built in (engine.shard_servers, engine.shard_states, engine.info_bounds):
            assert [k for k, part in enumerate(built) if part is not None] == owned
        assert sorted(engine.server_hosts) == owned
        # Every foreign shard and client is a registered address, so
        # crash windows keep its incarnation in step with its owner's.
        assert all(engine.network.is_registered(h) for h in replica.remote_hosts)
        # Nothing built posted an event or drew from the workload's
        # stream, so what a replica skips cannot shift what it keeps.
        assert repr(engine.sim._seq) == repr(whole.engine.sim._seq)
        assert replica.workload._rng.getstate() == whole.workload._rng.getstate()
        owners.extend(replica.owned_clients)
    assert sorted(owners) == list(range(BASE["num_clients"]))


def _partition_of(client_id, shards=4, workers=2):
    settings = SimulationSettings(**BASE, shards=shards)
    home = PartitionReplica("seve", settings, 0, 1).engine.home_shard(client_id)
    return worker_of_shard(home, shards, workers)


#: One client and one shard of each partition of K = 4, W = 2 crash;
#: client 3 and both shards come back.
CRASHES_IN_EACH_PARTITION = "3@600:1500,4@700,s1@800:1400,s2@1000:1800"


def test_stub_crashes_and_reconnects_match_across_partitions():
    # Each replica crashes and reconnects the other partition's stubs
    # in step with their owners.
    assert (_partition_of(3), _partition_of(4)) == (0, 1)
    assert (worker_of_shard(1, 4, 2), worker_of_shard(2, 4, 2)) == (0, 1)
    plan = FaultPlan(crashes=parse_crash_plan(CRASHES_IN_EACH_PARTITION))
    one = run("inproc", plan=plan, shards=4)
    many = run("inproc", plan=plan, shards=4, workers=2)
    parallel = run("parallel", plan=plan, shards=4, workers=2)
    key = result_key(one, events=False)
    assert key == result_key(many, events=False) == result_key(parallel, events=False)
    assert one.shard_audit.consistent


@pytest.mark.parametrize("crashes", [None, CRASHES_IN_EACH_PARTITION], ids=["clean", "crashes"])
def test_fork_matches_spawn_matches_inproc(crashes, monkeypatch, one_minute):
    # Both start methods run the same worker code; forcing spawn keeps
    # that path exercised where the backend would fork.
    from repro.net import backend

    plan = FaultPlan(crashes=parse_crash_plan(crashes)) if crashes else None
    if sys.platform == "linux":
        assert start_context().get_start_method() == "fork"
    inproc = run("inproc", plan=plan, shards=4, workers=2)
    forked = run("parallel", plan=plan, shards=4, workers=2)
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(backend, "start_context", lambda: spawn)
    spawned = run("parallel", plan=plan, shards=4, workers=2)
    assert result_key(forked) == result_key(spawned) == result_key(inproc)


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/fd")
def test_parallel_run_leaves_no_descriptor_open(one_minute):
    # The caller closes every pipe end it made, whatever the workers did.
    def descriptors():
        return sorted(os.listdir("/proc/self/fd"))

    before = descriptors()
    run("parallel", shards=4, workers=3)
    assert descriptors() == before


def test_cheaters_in_both_partitions_match_across_partitions():
    # A cheater draws from its own stream (keyed by plan seed, client id
    # and model), so a replica that builds only its own cheaters draws
    # exactly what the one-partition run draws for them.
    cheaters = parse_adversary_plan("nondet:0+4,lying-rs:6,equivocate:1")
    assert {_partition_of(c) for _, ids in cheaters for c in ids} == {0, 1}
    plan = AdversaryPlan(assignments=cheaters, seed=5)
    one = run("inproc", shards=4, adversary=plan)
    many = run("inproc", shards=4, workers=2, adversary=plan)
    assert result_key(one, events=False) == result_key(many, events=False)
    assert one.clients_evicted > 0


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP 4b: MoveWorkload.resume_client draws a reconnecting "
    "client's phase offset from the one shared workload stream, and a "
    "replica draws only for the clients it owns, so two reconnects in "
    "different partitions get different offsets at W = 2 than at W = 1; "
    "a per-client stream fixes it but re-samples the reconnect goldens",
)
def test_reconnects_in_two_partitions_match_across_partitions():
    assert (_partition_of(3), _partition_of(4)) == (0, 1)
    plan = FaultPlan(crashes=parse_crash_plan("3@600:1500,4@700:1600"))
    one = run("inproc", plan=plan, shards=4)
    many = run("inproc", plan=plan, shards=4, workers=2)
    assert result_key(one, events=False) == result_key(many, events=False)


# ----------------------------------------------------------------------
# The end-of-run audit: every field, at every W and backend
# ----------------------------------------------------------------------
#: A clean run, a shard crash and a live rebalancer.
AUDIT_SHAPES = {
    "clean": {},
    "shard crash": dict(plan=FaultPlan(crashes=parse_crash_plan("s2@1500:3500"))),
    "elastic": dict(
        elastic=True,
        elastic_interval_ms=500,
        elastic_threshold=1.05,
        elastic_hysteresis=1,
    ),
}

#: ``(backend, workers)`` of the three ways a K = 4 run executes.
EVERY_W = (("inproc", 1), ("inproc", 2), ("parallel", 2))
#: Twice ``BASE``'s clients: enough that replicas go stale.
AUDITED = dict(shards=4, num_clients=16)


def audits_at_every_w(**overrides):
    """Both Theorem 1 reports of ``run(…, **AUDITED, **overrides)``,
    field for field, asserted equal for every entry of ``EVERY_W``;
    returns the W = 1 run."""
    runs = [
        run(backend, workers=workers, **AUDITED, **overrides)
        for backend, workers in EVERY_W
    ]
    reports = [
        (dataclasses.asdict(r.consistency), dataclasses.asdict(r.shard_audit))
        for r in runs
    ]
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]
    return runs[0]


def test_fault_tolerant_runs_without_a_fault_plan_match_at_every_w():
    # Every client reports every completion, so an owner client's
    # report may carry a span's result to the peers: under fault
    # tolerance every completion is a trigger, or a shard sends its
    # SpanResult before the promise it made.
    settings = SimulationSettings(
        num_clients=48, num_walls=500, moves_per_client=3, world_width=600.0,
        spawn="uniform", shards=4, seed=1000, fault_tolerant=True,
    )  # fmt: skip
    runs = []
    for backend, workers in EVERY_W:
        result = run_simulation("seve", settings.with_(backend=backend, workers=workers))
        fields = dataclasses.asdict(result)
        del fields["wall_seconds"], fields["settings"]
        runs.append(repr(fields))
    assert result.consistency.consistent and result.shard_audit.consistent
    assert result.responses_observed == result.moves_submitted
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("shape", sorted(AUDIT_SHAPES))
def test_audit_reports_match_field_for_field(shape):
    one = audits_at_every_w(**AUDIT_SHAPES[shape])
    audit = one.shard_audit
    assert audit.consistent and audit.replica_report is not None
    assert audit.clients_checked == AUDITED["num_clients"]
    assert audit.span_observations > 0
    assert audit.replica_report.stale_but_consistent > 0
    if shape == "elastic":
        assert one.rebalance_events


def _planted_finish(monkeypatch, plants):
    """Wrap ``PartitionReplica.finish`` so that, in whichever replica
    owns the client, each ``(client_id, plant)`` of ``plants`` runs on
    that client before the run's last millisecond and its audit.  Set
    before the workers fork, so they inherit it."""
    if start_context().get_start_method() != "fork":
        pytest.skip("workers inherit the wrapped finish only when forked")
    finish = PartitionReplica.finish

    def planted(replica, deadline):
        for client_id, plant in plants:
            if client_id in replica.owned_clients:
                plant(replica.engine.clients[client_id])
        return finish(replica, deadline)

    monkeypatch.setattr(PartitionReplica, "finish", planted)


def _two_span_observations(monkeypatch):
    """``(client, i, j)``: positions in one client's observation log of
    two spanning actions of one epoch with different gsns, read off an
    unplanted W = 1 run (the run is deterministic, so the positions
    hold at every W)."""
    engines = []
    finish = PartitionReplica.finish

    def capturing(replica, deadline):
        engines.append(replica.engine)
        return finish(replica, deadline)

    monkeypatch.setattr(PartitionReplica, "finish", capturing)
    run("inproc", **AUDITED)
    monkeypatch.setattr(PartitionReplica, "finish", finish)
    (engine,) = engines
    gsns = engine.span_gsn_map()
    for client_id in sorted(engine.clients):
        seen = {}
        for index, record in enumerate(engine.clients[client_id].observations):
            if record[0] == "epoch":
                seen = {}
                continue
            gsn = gsns.get(record[3] if record[3] is not None else record[2])
            if gsn is not None and seen and gsn not in seen:
                return client_id, next(iter(seen.values())), index
            if gsn is not None:
                seen.setdefault(gsn, index)
    raise AssertionError("no client observed two spanning actions in one epoch")


def test_planted_faults_are_reported_alike_at_every_w(monkeypatch):
    # A value no shard ever committed, held by a client of partition 0
    # for an avatar homed in partition 1; and two spanning actions
    # swapped in one client's observation log.
    from repro.world.avatar import avatar_id

    settings = SimulationSettings(**{**BASE, **AUDITED})
    whole = PartitionReplica("seve", settings, 0, 1).engine
    homes = [whole.home_shard(c) for c in range(AUDITED["num_clients"])]
    holder = next(c for c, home in enumerate(homes) if worker_of_shard(home, 4, 2) == 0)
    owner = next(c for c, home in enumerate(homes) if worker_of_shard(home, 4, 2) == 1)
    lie = {"x": -1.0, "y": -1.0, "never": "committed"}
    swapper, i, j = _two_span_observations(monkeypatch)

    def swap(client):
        log = client.observations
        log[i], log[j] = log[j], log[i]

    _planted_finish(monkeypatch, [
        (holder, lambda client: client.stable.install({avatar_id(owner): lie})),
        (swapper, swap),
    ])  # fmt: skip
    one = audits_at_every_w()
    violations = one.consistency.violations
    assert [(v.client_id, v.oid, v.held) for v in violations] == [
        (holder, avatar_id(owner), lie)
    ]
    assert violations[0].committed  # the avatar's value in some store
    assert [v.client_id for v in one.shard_audit.order_violations] == [swapper]
    assert one.shard_audit.replica_report.violations == violations


# ----------------------------------------------------------------------
# The coordinator's step order, over fakes
# ----------------------------------------------------------------------
class _FakeReplica:
    """Stands in for a ``PartitionReplica`` stepped by ``_drive``:
    busy until its first window, quiescent after it."""

    def __init__(self, partition, log):
        self.partition, self.log = partition, log

    def launch(self):
        return [], BarrierReport([], 0.0, False)

    def run_window(self, end, entries):
        self.log.append(("step", self.partition))
        return BarrierReport([], None, True)

    def finish(self, deadline):
        self.log.append(("finish", self.partition))
        return [f"residue {self.partition}"], {self.partition: 0, "last": self.partition}

    def audit(self, residues, gsns):
        self.log.append(("audit", self.partition, residues, gsns))
        return f"snapshot {self.partition}"


class _FakePipe:
    """Stands in for the pipe to a sibling worker serving a replica
    with the same script."""

    def __init__(self, partition, log):
        self.partition, self.log = partition, log
        self.replies = [([], BarrierReport([], 0.0, False))]

    def send(self, message):
        audit = message[1:] if message[0] == "audit" else ()
        self.log.append(("post " + message[0], self.partition, *audit))
        if message[0] == "window":
            self.replies.append(BarrierReport([], None, True))
        elif message[0] == "finish":
            gsns = {self.partition: 0, "last": self.partition}
            self.replies.append(([f"residue {self.partition}"], gsns))

    def recv(self):
        self.log.append(("recv", self.partition))
        return self.replies.pop(0)


def test_drive_posts_to_every_sibling_before_stepping_its_own_replicas():
    # Siblings must be running while the coordinating process steps its
    # own replicas, or the parallel backend is serial with extra pipes;
    # and the replicas stepped inline share one observer, so their
    # order is part of the byte-identity contract.  The same holds for
    # both halves of the audit exchange: each partition is handed every
    # other one's residue and the gsn maps merged in partition order.
    log = []
    replicas = [_FakeReplica(0, log), _FakeReplica(1, log)]
    pipes = [_FakePipe(2, log), _FakePipe(3, log)]
    snapshots = _drive(replicas, pipes, SimulationSettings(**BASE, shards=4))
    assert snapshots == ["snapshot 0", "snapshot 1"]
    residues = [[f"residue {p}"] for p in range(4)]

    def others(partition):
        return [None if p == partition else r for p, r in enumerate(residues)]

    gsns = {0: 0, 1: 0, 2: 0, 3: 0, "last": 3}
    assert log == [
        ("recv", 2), ("recv", 3),  # the siblings' launch reports
        ("post window", 2), ("post window", 3),
        ("step", 0), ("step", 1),
        ("recv", 2), ("recv", 3),
        ("post finish", 2), ("post finish", 3),
        ("finish", 0), ("finish", 1),
        ("recv", 2), ("recv", 3),  # the siblings' residue and gsn maps
        ("post audit", 2, others(2), gsns), ("post audit", 3, others(3), gsns),
        ("audit", 0, others(0), gsns), ("audit", 1, others(1), gsns),
    ]  # fmt: skip


# ----------------------------------------------------------------------
# A worker that dies is a SimulationError, never a hang
# ----------------------------------------------------------------------
class _Garbling:
    """The lead's command pipe to one sibling, which hands it garbage
    in place of the first window."""

    def __init__(self, conn, how):
        self._conn, self._how = conn, how

    def send(self, message):
        if self._how is not None and message[0] == "window":
            message, self._how = GARBAGE[self._how](message), None
        self._conn.send(message)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _truncated_frame(window):
    """``window`` plus an entry whose frame lost its last byte."""
    from repro.core.messages import Heartbeat, MessageCodec

    frame = MessageCodec().encode(Heartbeat(0))[:-1]
    _, end, entries = window
    return ("window", end, [*entries, (end, 0, 0, 0, 0, frame, 8, False, 0, False)])


#: Where a worker is killed: ``PartitionReplica`` method, fatal call.
KILLS = {
    "killed mid-window": ("run_window", 3),
    # the two halves of the audit exchange
    "killed before its residue": ("finish", 1),
    "killed while answering": ("audit", 1),
}

GARBAGE = {
    "non-tuple command": lambda window: "window",
    "unknown command": lambda window: ("rewind", *window[1:]),
    "truncated frame": _truncated_frame,
}


def _saboteur(
    victim, how, results, architecture, settings, partition, workers, peers, foreign, obs
):
    """Worker target standing in for ``partition_worker_main``: the real
    thing, after booby-trapping the replica class in the worker that
    owns partition ``victim``, or the lead's pipe to it.  The trap is
    set inside the worker, which a monkeypatch in the test process
    would not reach were it spawned.  The real thing is the function
    imported with this module: in a forked worker the module attribute
    ``repro.net.worker.partition_worker_main`` is still the test's
    stand-in, so calling through it would recurse."""
    from repro.net import backend

    if how in GARBAGE:
        if partition == 0:
            peers = list(peers)
            peers[victim - 1] = _Garbling(peers[victim - 1], how)
    elif partition == victim and how == "raise while building":

        def build(self, *args, **kwargs):
            raise RuntimeError("sabotaged build")

        backend.PartitionReplica.__init__ = build
    elif partition == victim:
        method, fatal = KILLS[how]
        original = getattr(backend.PartitionReplica, method)
        calls = []

        def killed(self, *args):
            calls.append(args)
            if len(calls) == fatal:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(self, *args)

        setattr(backend.PartitionReplica, method, killed)
    partition_worker_main(
        results, architecture, settings, partition, workers, peers, foreign, obs
    )


@pytest.mark.parametrize(
    "victim, how, expected",
    [
        # The sibling tells the caller itself; the lead reads
        # end-of-file where it expected the launch report.
        (1, "raise while building", [
            "partition worker 1 failed (exit code 1)",
            "RuntimeError: sabotaged build",
            "partition worker 0 failed (exit code 1)",
        ]),
        # Nobody hears from a killed sibling: the lead turns the
        # end-of-file into its own error report.
        (2, "killed mid-window", [
            "partition worker 2 failed (exit code -9)",
            "exited unexpectedly",
            "partition worker 0 failed (exit code 1)",
            "EOFError",
        ]),
        # The lead killed: its siblings read end-of-file on pipes only
        # the lead and they hold, and unwind.
        (0, "killed mid-window", [
            "partition worker 0 failed (exit code -9)",
            "partition worker 1 failed (exit code 1)",
            "partition worker 2 failed (exit code 1)",
        ]),
        # Garbage from the lead on a sibling's command pipe ends in one
        # typed error there, and the lead reads end-of-file.
        (1, "non-tuple command", [
            "partition worker 1 failed (exit code 1)",
            "SimulationError: malformed worker command: 'window'",
            "partition worker 0 failed (exit code 1)",
        ]),
        (2, "unknown command", [
            "partition worker 2 failed (exit code 1)",
            "SimulationError: unknown worker command: ('rewind'",
            "partition worker 0 failed (exit code 1)",
        ]),
        (1, "truncated frame", [
            "partition worker 1 failed (exit code 1)",
            "CodecError",
            "partition worker 0 failed (exit code 1)",
        ]),
        # A sibling killed before it offers its residue: the lead reads
        # end-of-file where it expected the offer.
        (2, "killed before its residue", [
            "partition worker 2 failed (exit code -9)",
            "exited unexpectedly",
            "partition worker 0 failed (exit code 1)",
            "EOFError",
        ]),
        # A sibling killed while it answers: the lead has handed out
        # the exchange and waits for nobody, so it alone fails.
        (2, "killed while answering", [
            "partition worker 2 failed (exit code -9)",
            "exited unexpectedly",
        ]),
    ],
)  # fmt: skip
def test_dead_worker_is_an_error_never_a_hang(
    victim, how, expected, monkeypatch, one_minute
):
    monkeypatch.setattr(
        "repro.net.worker.partition_worker_main",
        functools.partial(_saboteur, victim, how),
    )
    with pytest.raises(SimulationError) as raised:
        run("parallel", shards=4, workers=3)
    for text in expected:
        assert text in str(raised.value)
    if how == "killed while answering":
        assert "partition worker 0" not in str(raised.value)
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Observer merging across workers
# ----------------------------------------------------------------------
def test_profile_merges_across_workers():
    profiled = run("parallel", shards=2, profile=True)
    assert profiled.profile is not None
    # phases from every worker land in one table, with real counts
    assert "sim.dispatch" in profiled.profile
    assert profiled.profile["sim.dispatch"]["count"] == profiled.events

    # observation must not perturb the run (determinism contract)
    unprofiled = run("parallel", shards=2)
    assert profiled.events == unprofiled.events
    assert result_key(profiled) == result_key(unprofiled)


def test_metrics_merge_across_workers(tmp_path):
    out = tmp_path / "metrics.json"
    result = run("parallel", shards=2, metrics_out=str(out))
    assert out.exists()
    baseline = run("inproc", shards=2, workers=2)
    assert result_key(result) == result_key(baseline)


def test_window_counters_agree_across_backends(tmp_path):
    # What the barrier schedule cost and what ended each window, from
    # the run's own artefacts: the coordinator counts them into the
    # metrics registry, wherever it runs, and the schedule is one for
    # every W.
    def counters(backend, workers):
        out = tmp_path / f"{backend}-{workers}.json"
        result = run(backend, shards=4, workers=workers, metrics_out=str(out))
        assert sum(row["spans_forwarded"] for row in result.shard_rows) > 0
        metrics = json.loads(out.read_text())
        return {
            name: row["value"]
            for name, row in metrics.items()
            if name.startswith("backend.")
        }

    ends = [f"backend.window_end.{why}" for why in WINDOW_ENDS]
    schedule = ["backend.windows", *ends]
    one, inproc = counters("inproc", 1), counters("inproc", 2)
    assert inproc == counters("parallel", 2)
    assert [one[name] for name in schedule] == [inproc[name] for name in schedule]
    assert set(inproc) == {
        *schedule,
        "backend.windows_with_traffic",
        "backend.cross_partition_messages",
    }
    windows = inproc["backend.windows"]
    assert sum(inproc[name] for name in ends) == windows
    # Spans end windows by their promises; the quiet stretches between
    # them run to the client-link bound.
    assert inproc["backend.window_end.promise"] > 0
    assert inproc["backend.window_end.client_link"] > 0
    assert (
        0
        < inproc["backend.windows_with_traffic"]
        <= min(windows, inproc["backend.cross_partition_messages"])
    )
    assert one["backend.windows_with_traffic"] == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_a_backbone_send_before_its_promise_is_an_error(workers, monkeypatch):
    # The soundness net under the window rule: shard 1 calls its
    # spanning submissions quiet, so it promises later than it forwards
    # them — and the first such forward names everything.
    original = ShardedSeveEngine.backbone_trigger

    def under_promising(engine, dst, payload):
        return original(engine, dst, payload) and not (
            type(payload) is SubmitAction and dst == shard_host_id(1)
        )

    monkeypatch.setattr(ShardedSeveEngine, "backbone_trigger", under_promising)
    with pytest.raises(SimulationError) as raised:
        run("inproc", shards=4, workers=workers)
    match = re.fullmatch(
        r"shard 1 sent a SpanForward on the backbone at (\S+) ms, "
        r"before the (\S+) ms it promised at the last barrier",
        str(raised.value),
    )
    assert match is not None, str(raised.value)
    sent, promised = map(float, match.groups())
    assert sent < promised


@pytest.mark.parametrize(
    "dropped, speaks",
    [
        # the originator's completion, which the owner relays
        (Completion, "SpanResult"),
        # the forward, which the sequencer splices at once
        (SpanForward, "SpanSplice"),
        # a spanning admission still on the owner's host at a barrier
        ("queued admission", "SpanForward"),
    ],
)
def test_every_promise_rule_is_load_bearing(dropped, speaks, monkeypatch):
    # Each of these promise rules, left out, lets some shard speak
    # before its promise on the smoke-scale sprawl_k4 shape (the
    # handoff rules need a larger run to fire).
    if dropped == "queued admission":
        note = ShardServer._note_submission

        def forgetful(server, src, action):
            note(server, src, action)
            server.spans.queued.discard(action.action_id)

        monkeypatch.setattr(ShardServer, "_note_submission", forgetful)
    else:
        original = ShardedSeveEngine.backbone_trigger
        monkeypatch.setattr(
            ShardedSeveEngine,
            "backbone_trigger",
            lambda engine, dst, payload: type(payload) is not dropped
            and original(engine, dst, payload),
        )
    settings = SimulationSettings(
        num_clients=48, num_walls=500, moves_per_client=3, world_width=600.0,
        spawn="uniform", shards=4, seed=1001,
    )  # fmt: skip
    with pytest.raises(SimulationError, match=f"sent a {speaks} on the backbone"):
        run_simulation("seve", settings)


#: Counters that count cross-partition traffic, so depend on W by
#: definition.
PER_PARTITIONING = {"backend.cross_partition_messages", "backend.windows_with_traffic"}
#: Histograms whose ``sum`` adds the same samples in a merge order that
#: depends on W: equal up to the last place, so left out.
MERGE_ORDERED_SUMS = {"host.queue_delay_ms", "response_ms"}


def _unpartitioned(metrics):
    """Metric records by name, less what depends on how the run was
    partitioned."""
    return {
        name: {
            key: value
            for key, value in record.items()
            if not (key == "sum" and name in MERGE_ORDERED_SUMS)
        }
        for name, record in metrics.items()
        if name not in PER_PARTITIONING
    }


def _counts(profile):
    return {phase: row["count"] for phase, row in profile.items()}


def _records(settings, path):
    """What ``--metrics-out`` and ``--profile`` record of a run, less
    what depends on how it was partitioned."""
    result = run_simulation("seve", settings.with_(metrics_out=str(path), profile=True))
    return _unpartitioned(json.loads(path.read_text())), _counts(result.profile)


def test_records_do_not_depend_on_the_partitioning(tmp_path):
    settings = SimulationSettings(**BASE, shards=2)
    one = _records(settings.with_(workers=1), tmp_path / "w1.json")
    assert one[0]["server.shard.splices"]["value"] > 0  # not vacuous
    assert _records(settings.with_(workers=2), tmp_path / "w2.json") == one
    parallel = settings.with_(backend="parallel", workers=2)
    assert _records(parallel, tmp_path / "parallel.json") == one


@pytest.mark.parametrize(
    "workers, backend",
    [
        pytest.param(0, "inproc", id="0"),
        pytest.param(2, "inproc", id="2"),
        pytest.param(2, "parallel", id="parallel"),
    ],
)
def test_caller_supplied_observer_sees_a_sharded_run(workers, backend):
    # The replicas observe into the observer the caller passed, not only
    # into ones built from the settings' own observability requests: a
    # worker process observes into an empty observer of its shape, which
    # is merged into it.
    from repro.obs import Observer

    def observed(settings):
        obs = Observer(profile=True)
        return run_simulation("seve", settings, obs=obs), obs

    settings = SimulationSettings(**BASE, shards=4)
    result, obs = observed(settings.with_(workers=workers, backend=backend))
    assert result.profile == obs.profile.as_dict()
    assert result.profile["sim.dispatch"]["count"] == result.events
    requested = run_simulation(
        "seve", settings.with_(workers=workers, backend=backend, profile=True)
    )
    assert _counts(result.profile) == _counts(requested.profile)
    one, one_obs = observed(settings.with_(workers=1))
    assert _counts(result.profile) == _counts(one.profile)
    metrics = _unpartitioned(obs.metrics.to_dict())
    assert "backend.windows" in metrics and "net.message_bytes" in metrics
    assert metrics == _unpartitioned(one_obs.metrics.to_dict())
