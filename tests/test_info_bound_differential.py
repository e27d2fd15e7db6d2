"""Differential proof that Algorithm 7 walked over conflicts only (the
writer index) decides exactly what the literal backward scan decides.

Two copies of one seeded queue are driven in lockstep the way the server
drives its own — a validation tick over the new suffix, then a commit of
some prefix (queue GC and ``WriterIndex.note_dequeued``), an orphan abort
now and then — one through ``repro.core.info_bound.InformationBound``,
the other through the scan kept in
``tests/reference/info_bound_reference.py``.  After every tick the two
must agree on each entry's verdict and deferral count, on the dropped
indices, and on the whole ``InfoBoundStats`` — ``chain_lengths`` in
order included.
"""

from __future__ import annotations

import random

import pytest

from repro.core.action import Action, ActionId
from repro.core.closure import QueueEntry
from repro.core.indexes import WriterIndex
from repro.core.info_bound import InformationBound
from repro.world.geometry import Vec2
from tests.reference.info_bound_reference import ScanningInformationBound

#: clients, world extent, neighbour radius, threshold: the crowd packs
#: everyone into visibility range of a dozen others (long chains,
#: drops); the sprawl leaves most avatars alone (short chains in a long
#: queue).
DENSITIES = {
    "crowd": dict(clients=48, extent=160.0, see=30.0, threshold=45.0),
    "sprawl": dict(clients=256, extent=2000.0, see=60.0, threshold=45.0),
}


class _Move(Action):
    def __init__(self, action_id, reads, writes, position):
        super().__init__(
            action_id,
            reads=frozenset(reads) | frozenset(writes),
            writes=frozenset(writes),
            position=position,
        )

    def compute(self, store):
        return {}


def _specs(density: str, seed: int, ticks: int):
    """Per tick: the new entries as ``(client, reads, writes, position,
    prevalidated)`` plus how many head entries commit afterwards and
    which live offsets an orphan sweep aborts."""
    shape = DENSITIES[density]
    rng = random.Random(seed)
    spots = [
        Vec2(rng.uniform(0, shape["extent"]), rng.uniform(0, shape["extent"]))
        for _ in range(shape["clients"])
    ]
    plan = []
    for _ in range(ticks):
        new = []
        for _ in range(rng.randrange(4, 24)):
            client = rng.randrange(shape["clients"])
            here = spots[client]
            step = Vec2(rng.uniform(-3, 3), rng.uniform(-3, 3))
            spots[client] = here + step
            near = [
                other
                for other, spot in enumerate(spots)
                if other != client and spot.distance_to(here) <= shape["see"]
            ]
            reads = {f"avatar:{other}" for other in rng.sample(near, min(len(near), 6))}
            # One action in twelve carries no position (never dropped,
            # still a chain member); one in ten arrives pre-validated,
            # as a spliced spanning action does.
            position = None if rng.random() < 1 / 12 else here
            new.append(
                (client, reads, {f"avatar:{client}"}, position, rng.random() < 0.1)
            )
        plan.append((new, rng.randrange(0, 20), [rng.random() for _ in range(2)]))
    return plan


class _Queue:
    """One copy of the server's queue state around a validator."""

    def __init__(self, bound: InformationBound) -> None:
        self.bound = bound
        self.entries = []
        self.index = WriterIndex()
        self.base_pos = 0
        self.next_pos = 0
        self.validated_upto = -1

    def tick(self, new, commits, aborts):
        for client, reads, writes, position, prevalidated in new:
            action = _Move(ActionId(client, self.next_pos), reads, writes, position)
            entry = QueueEntry(self.next_pos, action, arrived_at=0.0)
            if prevalidated:
                entry.valid = True
            self.entries.append(entry)
            self.index.note_enqueued(entry.pos, action.writes)
            self.next_pos += 1
        first_new = self.validated_upto + 1 - self.base_pos
        dropped = self.bound.validate(
            self.entries, first_new, writer_index=self.index, base_pos=self.base_pos
        )
        for entry in self.entries[first_new:]:
            if entry.valid is None:
                break
            self.validated_upto = entry.pos
        # An orphan sweep flips validated entries inside later chains.
        validated = self.validated_upto + 1 - self.base_pos
        for fraction in aborts:
            if validated and fraction < 0.3:
                self.entries[int(fraction / 0.3 * validated)].valid = False
        # The commit frontier never passes an unvalidated entry.
        for _ in range(min(commits, validated)):
            entry = self.entries.pop(0)
            self.base_pos = entry.pos + 1
            self.index.note_dequeued(entry.action.writes, self.base_pos)
        return dropped, [(entry.pos, entry.valid, entry.deferrals) for entry in self.entries]


@pytest.mark.parametrize("policy", ["drop", "delay"])
@pytest.mark.parametrize("density", sorted(DENSITIES))
@pytest.mark.parametrize("seed", [3, 17, 40])
def test_conflict_walk_decides_what_the_backward_scan_decides(density, policy, seed):
    threshold = DENSITIES[density]["threshold"]
    shipped = _Queue(InformationBound(threshold, policy=policy, max_delay_ticks=2))
    oracle = _Queue(ScanningInformationBound(threshold, policy=policy, max_delay_ticks=2))
    for tick, (new, commits, aborts) in enumerate(_specs(density, seed, ticks=40)):
        got = shipped.tick(new, commits, aborts)
        want = oracle.tick(new, commits, aborts)
        assert got == want, f"tick {tick}"
        assert shipped.bound.stats == oracle.bound.stats, f"tick {tick}"
    stats = shipped.bound.stats
    assert stats.validated > 300
    assert stats.chain_lengths == oracle.bound.stats.chain_lengths
    assert max(stats.chain_lengths) >= 3  # real chains were walked
    if density == "crowd":
        assert stats.dropped > 0
        if policy == "delay":
            assert stats.deferred > 0 and stats.rescued > 0
