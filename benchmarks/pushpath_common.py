"""Shared builders for the push-path wall-clock benchmarks.

Used by the pytest-benchmark microbenchmarks in ``bench_micro.py``.
The scenario is the server's hot loop in isolation: N clients attached (avatars spread over a large world), a
window of freshly validated actions in the queue, and one
``_push_cycle()`` to distribute them — exactly the work the spatial
client index and the inverted write index make output-sensitive.
"""

from __future__ import annotations

import random

from repro.core.action import Action, ActionId
from repro.core.first_bound import FirstBoundPredicate
from repro.core.server_incomplete import IncompleteWorldServer
from repro.net.host import Host
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.state.versioned import VersionedStore
from repro.types import SERVER_ID
from repro.world.avatar import avatar_id, avatar_object
from repro.world.geometry import Vec2


class PushAction(Action):
    """A move-shaped action: writes its own avatar, reads a neighbour's."""

    def __init__(self, action_id, reads, writes, position):
        super().__init__(
            action_id,
            reads=frozenset(reads) | frozenset(writes),
            writes=frozenset(writes),
            position=position,
            radius=10.0,
            cost_ms=1.0,
        )

    def compute(self, store):
        return {oid: {} for oid in self.writes}


def build_push_server(
    num_clients: int,
    num_actions: int,
    *,
    world_extent: float = 2000.0,
    seed: int = 0,
):
    """A First Bound server with ``num_clients`` attached and
    ``num_actions`` validated entries queued, ready for one
    ``_push_cycle()``."""
    rng = random.Random(seed)
    sim = Simulator()
    network = Network(sim, rtt_ms=100.0, bandwidth_bps=None)
    host = Host(sim, SERVER_ID)
    positions = [
        Vec2(rng.uniform(0.0, world_extent), rng.uniform(0.0, world_extent))
        for _ in range(num_clients)
    ]
    state = VersionedStore(
        avatar_object(i, positions[i], speed=10.0) for i in range(num_clients)
    )
    predicate = FirstBoundPredicate(max_speed=10.0, rtt_ms=100.0, omega=0.5)
    server = IncompleteWorldServer(
        sim,
        network,
        host,
        state,
        predicate=predicate,
        avatar_of=avatar_id,
    )
    sink = lambda src, payload: None  # noqa: E731 — discard deliveries
    for client_id in range(num_clients):
        network.register(client_id, sink)
        server.attach_client(client_id, radius=10.0)
    for k in range(num_actions):
        client_id = rng.randrange(num_clients)
        neighbour = rng.randrange(num_clients)
        action = PushAction(
            ActionId(client_id, k),
            reads={avatar_id(neighbour)},
            writes={avatar_id(client_id)},
            position=positions[client_id],
        )
        server._admit(client_id, action)
    return server


def build_closure_queue(
    num_entries: int, num_objects: int, *, seed: int = 1, group_size: int = 8
):
    """A long uncommitted queue plus its writer index, for closure
    microbenchmarks.  Objects are partitioned into read-groups of
    ``group_size`` so a closure stays inside one group — short chains in
    a long queue, the regime the inverted write index targets."""
    from repro.core.closure import QueueEntry
    from repro.core.indexes import WriterIndex

    rng = random.Random(seed)
    entries = []
    index = WriterIndex()
    for pos in range(num_entries):
        owner = rng.randrange(num_objects)
        group = owner - owner % group_size
        reads = {f"o:{group + rng.randrange(group_size)}" for _ in range(2)}
        action = PushAction(
            ActionId(owner, pos),
            reads,
            {f"o:{owner}"},
            position=Vec2(rng.uniform(0, 100), rng.uniform(0, 100)),
        )
        entry = QueueEntry(pos, action, arrived_at=float(pos))
        entry.valid = True
        entries.append(entry)
        index.note_enqueued(pos, action.writes)
    return entries, index
