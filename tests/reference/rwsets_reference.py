"""Read/write-set algebra, and the plain backward chain walk.

The server's entire consistency job in an action-based protocol is set
algebra over declared read/write sets (that is the scalability
argument): conflict tests, write-set unions, and the backward chain
walks of Algorithm 6 and Algorithm 7.  :func:`backward_chain` is that
walk with nothing added — scan every earlier action, newest first, fold
in the read set of each one whose write set meets the accumulated set.
The two literal oracles kept here specialise it
(``distribution_reference.reference_transitive_closure`` subtracts what
the client was already sent, ``info_bound_reference`` stops at the first
member that is too far away); the shipped walks in ``src/`` jump between
writers through :class:`~repro.core.indexes.WriterIndex` instead.
``tests/test_rwsets_pending.py`` pins the algebra; nothing under
``src/`` imports this module (it lived at ``repro.core.rwsets``).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

from repro.core.action import Action
from repro.types import ObjectId


def conflicts(earlier: Action, later: Action) -> bool:
    """Whether ``earlier`` can affect ``later``: WS(earlier) ∩ RS(later).

    This is the paper's (asymmetric) causal-influence test — an earlier
    action affects a later one when the later action reads something the
    earlier one wrote.  Because RS ⊇ WS, this test also subsumes
    write-write conflicts.
    """
    return bool(earlier.writes & later.reads)


def write_set_union(actions: Iterable[Action]) -> frozenset[ObjectId]:
    """WS(Q): the union of write sets of a sequence of actions."""
    union: Set[ObjectId] = set()
    for action in actions:
        union |= action.writes
    return frozenset(union)


def read_set_union(actions: Iterable[Action]) -> frozenset[ObjectId]:
    """Union of read sets of a sequence of actions."""
    union: Set[ObjectId] = set()
    for action in actions:
        union |= action.reads
    return frozenset(union)


def backward_chain(
    queue: Sequence[Action],
    seed_reads: frozenset[ObjectId],
) -> Tuple[List[int], frozenset[ObjectId]]:
    """Walk ``queue`` backwards accumulating the conflict chain.

    Starting from read set ``seed_reads``, scan actions from the newest
    to the oldest; whenever an action's write set intersects the
    accumulated set, the action joins the chain and its read set is
    folded in (the core move of Algorithms 6 and 7).

    Returns ``(chain_indices, accumulated_reads)`` where
    ``chain_indices`` are queue indices in *ascending* (causal) order
    and ``accumulated_reads`` is the final accumulated read set S.  Note
    that S keeps the objects chain members write: a chain action that
    read-modify-writes an object still needs the object's base value, so
    a blind write seeding S entirely is both correct and necessary
    (RS ⊇ WS guarantees written objects are also read).
    """
    accumulated: Set[ObjectId] = set(seed_reads)
    chain: List[int] = []
    for index in range(len(queue) - 1, -1, -1):
        action = queue[index]
        if action.writes & accumulated:
            accumulated |= action.reads
            chain.append(index)
    chain.reverse()
    return chain, frozenset(accumulated)
