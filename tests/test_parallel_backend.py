"""The sharded drive: partition independence and unit behavior.

The load-bearing guarantee (docs/parallel.md): every sharded run goes
through one window coordinator, and for the same settings and seed the
partition count W and the backend change wall-clock only — results are
not statistically close but *identical* on every deterministic output,
whether one inline partition, several inline partitions, or spawned
worker processes step the replicas.  Any divergence is an ownership,
transport or merge bug, never "expected noise".

Multiprocessing note: workers use the ``spawn`` start method and
re-import ``__main__``; under pytest that is pytest's own entry point,
which is importable, so these tests need no guard beyond running via
pytest or a real script file (never a stdin heredoc).
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import signal

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.harness.config import SimulationSettings
from repro.harness.runner import run_simulation
from repro.net.backend import (
    BarrierReport,
    _drive,
    resolve_workers,
    spawn_context,
    worker_of_shard,
)
from repro.net.faults import FaultPlan

#: Small-but-sharded workload: big enough to exercise cross-shard span
#: forwarding, handoff, and the sequencer; small enough to keep the
#: spawned-worker differentials fast.
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


def test_spawn_context_uses_spawn_start_method():
    # fork would inherit the parent's RNG/module state and break the
    # Linux/macOS identity guarantee; the backend must pin spawn.
    context = spawn_context()
    assert isinstance(
        context, type(multiprocessing.get_context("spawn"))
    )
    assert context.get_start_method() == "spawn"


@pytest.mark.skip(
    reason="documents the start-method constraint: the parallel backend "
    "always uses multiprocessing spawn (never fork), so worker entry "
    "points must be importable — a __main__ loaded from stdin or an "
    "unguarded script cannot host a parallel run"
)
def test_fork_start_method_is_unsupported():
    pass


# ----------------------------------------------------------------------
# Partition independence: W = 1 == W > 1 == spawned workers, byte for byte
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
    spawned = run("parallel", shards=shards, workers=workers)
    assert result_key(one) == result_key(many) == result_key(spawned)
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
    # ever spawned.
    from repro.net import backend

    def no_spawn():
        raise AssertionError("degenerate parallel run spawned a process")

    monkeypatch.setattr(backend, "spawn_context", no_spawn)
    inproc = run("inproc", **degenerate)
    parallel = run("parallel", **degenerate)
    assert result_key(inproc) == result_key(parallel)


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
        return f"snapshot {self.partition}"


class _FakePipe:
    """Stands in for the pipe to a sibling worker serving a replica
    with the same script."""

    def __init__(self, partition, log):
        self.partition, self.log = partition, log
        self.replies = [([], BarrierReport([], 0.0, False))]

    def send(self, message):
        self.log.append(("post " + message[0], self.partition))
        if message[0] == "window":
            self.replies.append(BarrierReport([], None, True))

    def recv(self):
        self.log.append(("recv", self.partition))
        return self.replies.pop(0)


def test_drive_posts_to_every_sibling_before_stepping_its_own_replicas():
    # Siblings must be running while the coordinating process steps its
    # own replicas, or the parallel backend is serial with extra pipes;
    # and the replicas stepped inline share one observer, so their
    # order is part of the byte-identity contract.
    log = []
    replicas = [_FakeReplica(0, log), _FakeReplica(1, log)]
    pipes = [_FakePipe(2, log), _FakePipe(3, log)]
    snapshots = _drive(replicas, pipes, SimulationSettings(**BASE, shards=4))
    assert snapshots == ["snapshot 0", "snapshot 1"]
    assert log == [
        ("recv", 2), ("recv", 3),  # the siblings' launch reports
        ("post window", 2), ("post window", 3),
        ("step", 0), ("step", 1),
        ("recv", 2), ("recv", 3),
        ("post finish", 2), ("post finish", 3),
        ("finish", 0), ("finish", 1),
    ]  # fmt: skip


# ----------------------------------------------------------------------
# A worker that dies is a SimulationError, never a hang
# ----------------------------------------------------------------------
def _saboteur(victim, how, results, architecture, settings, partition, workers, peers):
    """Spawn target standing in for ``partition_worker_main``: the real
    thing, after booby-trapping the replica class in the worker that
    owns partition ``victim`` (a spawned worker is a fresh interpreter,
    so a monkeypatch in the test process would not reach it)."""
    from repro.net import backend, worker

    if partition == victim and how == "raise while building":

        def build(self, *args, **kwargs):
            raise RuntimeError("sabotaged build")

        backend.PartitionReplica.__init__ = build
    elif partition == victim:
        run_window = backend.PartitionReplica.run_window
        windows = []

        def killed_in_third_window(self, end, entries):
            windows.append(end)
            if len(windows) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_window(self, end, entries)

        backend.PartitionReplica.run_window = killed_in_third_window
    worker.partition_worker_main(
        results, architecture, settings, partition, workers, peers
    )


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
    # What the barrier schedule cost, from the run's own artefacts: the
    # coordinator counts its windows into the metrics registry, wherever
    # it runs.
    def counters(backend):
        out = tmp_path / f"{backend}.json"
        run(backend, shards=4, workers=2, metrics_out=str(out))
        metrics = json.loads(out.read_text())
        return {
            name: row["value"]
            for name, row in metrics.items()
            if name.startswith("backend.")
        }

    inproc = counters("inproc")
    assert inproc == counters("parallel")
    assert set(inproc) == {
        "backend.windows",
        "backend.windows_with_traffic",
        "backend.cross_partition_messages",
    }
    assert (
        0
        < inproc["backend.windows_with_traffic"]
        <= min(inproc["backend.windows"], inproc["backend.cross_partition_messages"])
    )


@pytest.mark.parametrize("workers", [0, 2])
def test_caller_supplied_observer_sees_a_sharded_run(workers):
    # The replicas observe into the observer the caller passed, not only
    # into ones built from the settings' own observability requests.
    from repro.obs import Observer

    obs = Observer(profile=True)
    settings = SimulationSettings(**BASE, shards=4, workers=workers)
    result = run_simulation("seve", settings, obs=obs)
    assert result.profile == obs.profile.as_dict()
    assert result.profile["sim.dispatch"]["count"] == result.events
    requested = run_simulation("seve", settings.with_(profile=True))
    assert {name: row["count"] for name, row in result.profile.items()} == {
        name: row["count"] for name, row in requested.profile.items()
    }
