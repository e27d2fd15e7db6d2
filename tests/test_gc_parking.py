"""The run parks CPython's cyclic garbage collector (docs/performance.md,
"The run parks the collector").

``run_simulation`` and ``partition_worker_main`` turn the collector off
for their whole length and put the caller's state back on every exit.
That is sound only while a run makes no reference cycle that dies
before the run does, so these tests pin both halves:

(a) the caller's collector state comes back exactly, after a return and
    after a raise;
(b) no collection runs inside a run — in the caller on every ledger
    shape (K = 1, K = 4 at W = 1 and W = 2 in-process, and the parallel
    caller), and in a partition worker for its whole life;
(c) a parked run and a run with the collector forced on reproduce the
    same golden fingerprints;
(d) with its engine alive, a finished run leaves no cyclic garbage when
    it is fault-free, and no more garbage for a longer run on the fault,
    elastic and adversary shapes.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import importlib.util
import json
import pathlib

import pytest

from repro.adversary import AdversaryPlan
from repro.harness import runner
from repro.harness.config import SimulationSettings
from repro.net import backend
from repro.net.worker import partition_worker_main
from tests.test_golden_runs import BASE, EVICTING, GOLDEN_PATH, LOSSY, RUNS, fingerprint

_PERF = pathlib.Path(__file__).parent.parent / "benchmarks" / "perf" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perf_workloads", _PERF)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def ledger_shape(name: str, **changes) -> SimulationSettings:
    """A ``benchmarks/perf`` workload at smoke scale, sub-seed 0 of seed 1."""
    fields = dict(workloads.settings_fields(name, "smoke"), **changes)
    return SimulationSettings(seed=workloads.subseed(1, 0), **fields)


@pytest.fixture
def collector():
    """The collector's state as the test found it, put back afterwards."""
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*thresholds)
    (gc.enable if enabled else gc.disable)()


@contextlib.contextmanager
def counting_collections():
    """Counts, per generation, the collections that start inside it."""
    counts = collections.Counter()

    def note(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    gc.callbacks.append(note)
    try:
        yield counts
    finally:
        gc.callbacks.remove(note)


# ---------------------------------------------------------------------------
# (a) the caller's state, restored exactly
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_the_callers_collector_state_is_restored(enabled, raises, collector, monkeypatch):
    if raises:
        def broken_start(*args):
            raise RuntimeError("a run that dies after its engine was built")

        monkeypatch.setattr(runner, "start_run", broken_start)
    gc.set_threshold(321, 7, 3)
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
        runner.run_simulation("seve", ledger_shape("crowd_k1"))
    assert gc.isenabled() is enabled
    assert gc.get_threshold() == (321, 7, 3)


# ---------------------------------------------------------------------------
# (b) no collection inside a run
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "name, changes",
    [
        ("crowd_k1", {}),
        ("sprawl_k1", {}),
        ("sprawl_k4", {}),
        ("sprawl_k4", dict(workers=2)),
        ("sprawl_k4_par", {}),
    ],
    ids=["crowd_k1", "sprawl_k1", "sprawl_k4-w1", "sprawl_k4-w2-inproc", "sprawl_k4_par"],
)
def test_no_collection_runs_inside_a_run(name, changes, collector, monkeypatch):
    gc.enable()
    gc.set_threshold(50, 2, 2)  # collect often, so an unparked run shows
    inside = []
    run = runner._run

    def counted(*args):
        with counting_collections() as counts:
            result = run(*args)
        inside.append(dict(counts))
        return result

    monkeypatch.setattr(runner, "_run", counted)
    result = runner.run_simulation("seve", ledger_shape(name, **changes))
    assert result.consistency.consistent
    assert inside == [{}]
    assert gc.isenabled()


def test_a_partition_worker_drives_with_the_collector_off(collector, monkeypatch):
    """The lead worker of a one-partition run, called in this process:
    its replica is built and driven with the collector off, no
    collection starts during its life, and the state comes back."""

    class Outbox:
        def __init__(self):
            self.sent = []

        def send(self, message):
            self.sent.append(message)

        def close(self):
            pass

    drive, states = backend._drive, []

    def observed(*args):
        states.append(gc.isenabled())
        return drive(*args)

    monkeypatch.setattr(backend, "_drive", observed)
    gc.enable()
    gc.set_threshold(50, 2, 2)
    results = Outbox()
    with counting_collections() as counts:
        partition_worker_main(results, "seve", ledger_shape("sprawl_k4"), 0, 1, [], [])
    assert states == [False]
    assert not counts
    assert gc.isenabled()
    ((kind, snapshot),) = results.sent
    assert kind == "done" and snapshot.partition == 0


# ---------------------------------------------------------------------------
# (c) the collector changes no result
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", ["seve_k1", "seve_k4_single"])
def test_a_parked_run_and_a_collected_run_match_the_golden(name, collector, monkeypatch):
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    assert fingerprint(RUNS[name]) == golden
    monkeypatch.setattr(runner, "parked_collector", contextlib.nullcontext)
    gc.enable()
    gc.set_threshold(200, 5, 5)
    with counting_collections() as counts:
        assert fingerprint(RUNS[name]) == golden
    assert counts[0] > 0 and counts[1] > 0  # passes over the live engine ran


# ---------------------------------------------------------------------------
# (d) cyclic garbage a finished run leaves, with its engine alive
# ---------------------------------------------------------------------------
def cyclic_garbage(architecture: str, settings: SimulationSettings) -> int:
    """Unreachable objects that only the cycle collector could free,
    after ``run_simulation`` — with every engine or partition replica
    the run built kept alive, so that the engine is not counted."""
    kept = []

    def keeping(build):
        def wrapper(*args, **kwargs):
            kept.append(build(*args, **kwargs))
            return kept[-1]

        return wrapper

    build_engine, replica = runner.build_engine, backend.PartitionReplica
    gc.collect()
    runner.build_engine = keeping(build_engine)
    backend.PartitionReplica = keeping(replica)
    try:
        runner.run_simulation(architecture, settings)
    finally:
        runner.build_engine, backend.PartitionReplica = build_engine, replica
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert kept
    return found


@pytest.mark.parametrize(
    "name, changes",
    [("crowd_k1", {}), ("sprawl_k1", {}), ("crowd_k1", dict(shards=4)), ("sprawl_k4", {})],
    ids=["crowd-k1", "sprawl-k1", "crowd-k4", "sprawl-k4"],
)
def test_a_fault_free_run_leaves_no_cyclic_garbage(name, changes, collector):
    assert cyclic_garbage("seve", ledger_shape(name, **changes)) == 0


#: The golden shapes with a fault plan, the rebalancer or cheaters.
SHAPES = {
    "lossy": ("seve", BASE.with_(fault_plan=LOSSY)),
    "evict": ("seve", BASE.with_(fault_plan=EVICTING)),
    # A restarted shard drops its dead server: one object graph per restart.
    "shard-crash": ("seve", RUNS["seve_k4_w2_mixed_crashes"]),
    "elastic": ("seve", RUNS["seve_k4_w2_elastic"]),
    "adversary": (
        "seve",
        BASE.with_(
            shards=2,
            adversary=AdversaryPlan(assignments=(("forge", (2,)), ("lying-ws", (5,))), seed=0),
        ),
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_cyclic_garbage_does_not_grow_with_run_length(shape, collector):
    architecture, settings = SHAPES[shape]
    moves = settings.moves_per_client
    short = cyclic_garbage(architecture, settings)
    long = cyclic_garbage(architecture, settings.with_(moves_per_client=2 * moves))
    assert long <= short, (short, long)
