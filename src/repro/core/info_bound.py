"""The Information Bound Model — Algorithm 7 of the paper.

The First Bound Model bounds the number of *direct* conflicts that must
reach a client, but the set actually sent is a transitive closure of
conflicts, and that closure is unbounded (the paper's equatorial Dining
Philosophers example: pairwise conflicts, world-spanning closure).

The Information Bound Model breaks long chains greedily: at every
simulation tick τ, each newly submitted action walks backwards through
the uncommitted, still-valid actions that conflict with it (WS ∩ S ≠ ∅,
found through the server's writer index rather than by scanning the
queue); whenever such a chain member lies farther than ``threshold``
away, the *new* action is declared invalid and dropped (aborted at the
server before distribution).  Dropping the occasional action at
chain-breaking points keeps every surviving closure inside the
Equation (2) bound while committing the vast majority of actions —
Table II quantifies the drop rate as a function of move effect range.

The decision is sequential in submission order (paper: "the decision to
drop actions is sequential"), so within one tick an earlier action can
become the chain-breaking point that saves the later ones.

Delaying instead of dropping
----------------------------
Section III-E also sketches an alternative: "delaying actions by some
amount of time so that the bulk of the actions in the conflicting
action set are committed".  With ``policy="delay"`` a chain-breaking
action is *deferred* — left unvalidated for up to ``max_delay_ticks``
further ticks, during which its conflicting predecessors commit and
leave the uncommitted queue, shrinking the chain.  Only an action that
still breaks the bound after the delay budget is dropped.  Validation
remains contiguous (a deferred action briefly holds back the entries
behind it), which preserves the ordering invariants the distribution
and commit paths rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Sequence, Set

from repro.core.action import Action
from repro.core.indexes import WriterIndex
from repro.errors import ConfigurationError
from repro.types import ObjectId


class ValidatableEntry(Protocol):
    """The slice of a server queue entry Algorithm 7 needs."""

    action: Action
    valid: Optional[bool]
    deferrals: int


@dataclass
class InfoBoundStats:
    """Aggregate statistics of the drop decisions (Table II inputs)."""

    validated: int = 0
    dropped: int = 0
    #: Deferral events under the "delay" policy (one per tick an action
    #: was held back).
    deferred: int = 0
    #: Actions that were deferred at least once and eventually admitted.
    rescued: int = 0
    #: Lengths of the conflict chains of *accepted* actions.
    chain_lengths: List[int] = field(default_factory=list)

    @property
    def drop_rate(self) -> float:
        """Fraction of validated actions that were dropped."""
        if self.validated == 0:
            return 0.0
        return self.dropped / self.validated

    @property
    def drop_percent(self) -> float:
        """Drop rate in percent (the Table II unit)."""
        return 100.0 * self.drop_rate


#: What may happen to a chain-breaking action (see :class:`InformationBound`).
POLICIES = ("drop", "delay")


class InformationBound:
    """Greedy chain-breaking validator (Algorithm 7's ``onNextTick``).

    ``threshold`` is the maximum distance, in world units, between an
    action and any member of its conflict chain (Table I sets it to
    1.5 × avatar visibility).

    ``policy`` selects what happens to a chain-breaking action:
    ``"drop"`` aborts it immediately (Algorithm 7); ``"delay"`` defers
    it for up to ``max_delay_ticks`` validation rounds so its conflict
    set can commit, and drops only if the chain still breaks the bound
    afterwards (the Section III-E alternative).
    """

    def __init__(
        self,
        threshold: float,
        *,
        policy: str = "drop",
        max_delay_ticks: int = 3,
    ) -> None:
        if threshold < 0:
            raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
        if policy not in POLICIES:
            raise ConfigurationError(f"unknown policy {policy!r}")
        if max_delay_ticks < 0:
            raise ConfigurationError("max_delay_ticks must be >= 0")
        self.threshold = threshold
        self.policy = policy
        self.max_delay_ticks = max_delay_ticks
        self.stats = InfoBoundStats()

    def validate(
        self,
        entries: Sequence[ValidatableEntry],
        first_new_index: int,
        *,
        writer_index: WriterIndex,
        base_pos: int = 0,
    ) -> List[int]:
        """Validate ``entries[first_new_index:]`` in submission order.

        ``entries`` must be the live (uncommitted) suffix of the server
        queue, oldest first; entries before ``first_new_index`` must
        already carry a ``valid`` verdict.  Each entry's ``valid`` field
        is set in place; the indices (into ``entries``) of dropped
        entries are returned so the caller can send abort notices.

        ``writer_index`` is the server's
        :class:`~repro.core.indexes.WriterIndex` over ``entries`` and
        ``base_pos`` the queue position of ``entries[0]``: each chain
        walk jumps between the uncommitted writers of its accumulated
        read set, which meets the same conflicts, in the same
        descending order, as scanning every earlier entry would
        (``tests/reference/info_bound_reference.py`` keeps that scan as
        the oracle).

        Under the delay policy, a chain-breaking entry with remaining
        delay budget is left *pending* (``valid`` stays ``None``) and
        validation stops there for this round — the caller must treat
        only the contiguous validated prefix as distributable.

        Entries whose actions carry no position are never dropped (no
        distance to measure) but still join chains via their read/write
        sets.
        """
        dropped: List[int] = []
        for index in range(first_new_index, len(entries)):
            entry = entries[index]
            if entry.valid is not None:
                # Pre-decided entry inside the new window — a spliced
                # spanning action arrives validated (the sequencer's gsn
                # order, not local chain geometry, admits it).  Skip it;
                # it still participates in later entries' chains.
                continue
            if self._admit(entries, index, writer_index, base_pos):
                entry.valid = True
                self.stats.validated += 1
                if entry.deferrals > 0:
                    self.stats.rescued += 1
                continue
            if (
                self.policy == "delay"
                and entry.deferrals < self.max_delay_ticks
            ):
                entry.deferrals += 1
                self.stats.deferred += 1
                break  # keep validation contiguous; retry next tick
            entry.valid = False
            self.stats.validated += 1
            self.stats.dropped += 1
            dropped.append(index)
        return dropped

    def _admit(
        self,
        entries: Sequence[ValidatableEntry],
        index: int,
        writer_index: WriterIndex,
        base_pos: int,
    ) -> bool:
        """Lines 19-34 of Algorithm 7 for the action at ``index``."""
        new_action = entries[index].action
        accumulated: Set[ObjectId] = set(new_action.reads)
        chain_length = 0
        cursor = base_pos + index
        while True:
            cursor = writer_index.latest_writer_before(accumulated, cursor)
            if cursor < base_pos:
                break  # no uncommitted writer of S below the cursor
            earlier = entries[cursor - base_pos]
            if not earlier.valid:
                continue  # dropped actions are no-ops, never conflict
            if self._too_far(new_action, earlier.action):
                return False
            accumulated |= earlier.action.reads
            chain_length += 1
        self.stats.chain_lengths.append(chain_length)
        return True

    def _too_far(self, new_action: Action, chain_member: Action) -> bool:
        if new_action.position is None or chain_member.position is None:
            return False
        distance = new_action.position.distance_to(chain_member.position)
        return distance > self.threshold
