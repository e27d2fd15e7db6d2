"""Algorithm 7's chain walk as it was before the writer index drove it:
the literal backward scan over every earlier queue entry.

``ScanningInformationBound._admit`` is lifted verbatim from
``repro.core.info_bound.InformationBound._admit``; it never touches the
:class:`~repro.core.indexes.WriterIndex` it is handed.
``tests/test_info_bound_differential.py`` holds the shipped validator to
its verdicts, drop lists and ``InfoBoundStats``.

:func:`writer_index_of` is the one helper through which hand-built
queues (unit tests, property tests, microbenchmarks) get the index
``InformationBound.validate`` requires.
"""

from __future__ import annotations

from typing import Sequence, Set

from repro.core.indexes import WriterIndex
from repro.core.info_bound import InformationBound, ValidatableEntry
from repro.types import ObjectId


def writer_index_of(entries: Sequence[ValidatableEntry]) -> WriterIndex:
    """A :class:`WriterIndex` over a hand-built queue whose positions
    are its list indices (so ``base_pos`` stays 0)."""
    index = WriterIndex()
    for position, entry in enumerate(entries):
        index.note_enqueued(position, entry.action.writes)
    return index


class ScanningInformationBound(InformationBound):
    """:class:`InformationBound` with the chain walk done by scanning."""

    def _admit(
        self,
        entries: Sequence[ValidatableEntry],
        index: int,
        writer_index: WriterIndex,
        base_pos: int,
    ) -> bool:
        new_action = entries[index].action
        accumulated: Set[ObjectId] = set(new_action.reads)
        chain_length = 0
        for j in range(index - 1, -1, -1):
            earlier = entries[j]
            if not earlier.valid:
                continue  # dropped actions are no-ops, never conflict
            earlier_action = earlier.action
            if not (earlier_action.writes & accumulated):
                continue
            if self._too_far(new_action, earlier_action):
                return False
            accumulated |= earlier_action.reads
            chain_length += 1
        self.stats.chain_lengths.append(chain_length)
        return True
