"""Microbenchmarks of the hot protocol paths.

These are real pytest-benchmark measurements (multiple rounds): the
transitive-closure walk, the Information Bound validation, the wall
queries, and the event loop — the operations whose costs the simulation's
calibrated cost model stands in for.
"""

import math
import random

import pytest

from pushpath_common import build_closure_queue, build_push_server
from repro.core.action import Action, ActionId
from repro.core.closure import QueueEntry, transitive_closure
from repro.core.indexes import WriterIndex
from repro.core.info_bound import InformationBound
from repro.net.simulator import Simulator
from repro.world.geometry import Vec2
from repro.world.walls import WallField, generate_walls
from tests.reference.info_bound_reference import writer_index_of


class _SetsAction(Action):
    def __init__(self, action_id, reads, writes, position=None):
        super().__init__(
            action_id,
            reads=frozenset(reads) | frozenset(writes),
            writes=frozenset(writes),
            position=position,
        )

    def compute(self, store):
        return {}


def _queue(num_actions=200, num_objects=60, seed=0):
    rng = random.Random(seed)
    entries = []
    for pos in range(num_actions):
        owner = rng.randrange(num_objects)
        neighbors = {
            f"o:{rng.randrange(num_objects)}" for _ in range(rng.randrange(4))
        }
        action = _SetsAction(
            ActionId(owner, pos),
            neighbors,
            {f"o:{owner}"},
            position=Vec2(rng.uniform(0, 250), rng.uniform(0, 250)),
        )
        entries.append(QueueEntry(pos, action, arrived_at=float(pos)))
    return entries


def test_transitive_closure_200_uncommitted(benchmark):
    def run():
        entries = _queue()
        index = WriterIndex()
        for entry in entries:
            entry.valid = True
            index.note_enqueued(entry.pos, entry.action.writes)
        return transitive_closure(
            entries, len(entries) - 1, client_id=999, writer_index=index
        )

    chain, seed = benchmark(run)
    assert chain[-1] == 199


def test_info_bound_validation_200_actions(benchmark):
    def run():
        entries = _queue(seed=1)
        bound = InformationBound(threshold=45.0)
        bound.validate(entries, 0, writer_index=writer_index_of(entries))
        return bound

    bound = benchmark(run)
    assert bound.stats.validated == 200


def test_info_bound_validation_1k_backlog(benchmark):
    """Algorithm 7 on the ``sprawl_k1`` shape: 100 new actions behind a
    validated backlog of 1 000, chains a handful of entries long — the
    walk visits the conflicts, not the backlog."""
    entries, index = build_closure_queue(1100, 1024)

    def setup():
        for entry in entries[1000:]:
            entry.valid = None
        return (), {}

    def run():
        bound = InformationBound(threshold=200.0)
        bound.validate(entries, 1000, writer_index=index)
        return bound

    bound = benchmark.pedantic(run, setup=setup, rounds=20)
    assert bound.stats.validated == 100
    assert max(bound.stats.chain_lengths) < 50


@pytest.fixture(scope="module")
def wall_field():
    """The ``crowd_k1`` wall density: 20 000 walls over 1000 x 1000."""
    walls = generate_walls(20_000, world_width=1000.0, world_height=1000.0, seed=2)
    return WallField(walls, width=1000.0, height=1000.0)


def test_first_obstruction_20k_walls(benchmark, wall_field):
    """1 000 three-unit moves (one avatar step) through the collision
    kernel — the query every ``MoveAction.apply`` makes."""
    rng = random.Random(2)
    moves = []
    for _ in range(1_000):
        start = Vec2(rng.uniform(0, 1000), rng.uniform(0, 1000))
        step = Vec2.from_heading(rng.uniform(-math.pi, math.pi)).scaled(3.0)
        moves.append((start, start + step))

    def run():
        return sum(
            wall_field.first_obstruction(start, end) is not None
            for start, end in moves
        )

    blocked = benchmark(run)
    assert 0 < blocked < len(moves)


def test_walls_near_20k_walls(benchmark, wall_field):
    def run():
        return wall_field.walls_near(Vec2(500, 500), 58.0)

    found = benchmark(run)
    assert found


@pytest.mark.parametrize("num_clients", [512, 2048])
def test_push_cycle(benchmark, num_clients):
    """One First Bound push cycle over a freshly validated window —
    the server loop the spatial client index makes output-sensitive."""

    def setup():
        return (build_push_server(num_clients, 128),), {}

    def run(server):
        server._push_cycle()
        return server.stats.closures_computed

    closures = benchmark.pedantic(run, setup=setup, rounds=3)
    assert closures > 0


def test_push_cycle_lagging_clients(benchmark):
    """Ten push cycles over a 300-entry backlog of 128 crowded clients
    (the ``crowd_k1`` shape): with nothing committing, the in-order
    delivery guard soon holds every client at some entry whose closure
    reaches below what it was already sent.  The backlog is nominated
    once, and each lagging client retries only the entry it waits at."""

    def setup():
        return (build_push_server(128, 300, world_extent=160.0),), {}

    def run(server):
        for _ in range(10):
            server._push_cycle()
        return server

    server = benchmark.pedantic(run, setup=setup, rounds=3)
    assert server.stats.closures_deferred > 9 * 100
    assert min(record.scanned_pos for record in server.clients.values()) < 299


def test_transitive_closure_2048_uncommitted(benchmark):
    """Algorithm 6 on a long queue: the inverted write index jumps
    straight between actual writers."""
    entries, index = build_closure_queue(2048, 256)

    def setup():
        for entry in entries:
            entry.sent.clear()
        return (), {}

    def run():
        return transitive_closure(
            entries, len(entries) - 1, client_id=999, writer_index=index
        )

    chain, _seed = benchmark.pedantic(run, setup=setup, rounds=50)
    assert chain[-1] == 2047


def test_event_loop_throughput_10k_events(benchmark):
    def run():
        sim = Simulator()
        counter = {"n": 0}

        def tick():
            counter["n"] += 1

        for i in range(10_000):
            sim.schedule(float(i % 97), tick)
        sim.run()
        return counter["n"]

    assert benchmark(run) == 10_000
