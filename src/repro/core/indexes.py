"""Output-sensitive distribution indexes for the Incomplete World server.

The paper's server scales because it only timestamps and filters — but a
naive implementation of the filter is O(clients x actions) per push
cycle and O(queue) per Algorithm 6 closure, which dominates the *host*
(wall-clock) runtime of large simulations even though the *simulated*
cost model is untouched.  This module holds the two inverted indexes
that make both paths output-sensitive:

* :class:`ClientSpatialIndex` — a uniform grid over committed avatar
  positions, so a newly validated action can locate its candidate
  recipients with one radius query — asked once per entry, the answer
  kept on the recipients' pending lists — instead of testing every
  client.
* :class:`WriterIndex` — per-object ascending lists of *uncommitted*
  writer queue positions, so the backward chain walks of Algorithm 6
  (closure) and Algorithm 7 (Information Bound) jump between actual
  writers of the accumulated read set instead of scanning every queue
  entry.

Both indexes are pure wall-clock accelerators.  The determinism
invariant (docs/performance.md): they must be *observationally
equivalent* to the scans they replace — same batches, same stats, same
simulated costs — and the differential tests
(``tests/test_distribution_differential.py``,
``tests/test_info_bound_differential.py``) enforce exactly that.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Set

from repro.types import ClientId, ObjectId
from repro.world.geometry import Vec2
from repro.world.spatial import UniformGridIndex

#: Relative + absolute slack added to spatial candidate queries so a
#: client sitting exactly on the Equation (1) boundary can never be lost
#: to floating-point rounding — candidate sets may only ever *grow*
#: (they are exact-filtered afterwards).
_RADIUS_SLACK = 1e-9


def _inflated(radius: float) -> float:
    return radius + radius * _RADIUS_SLACK + _RADIUS_SLACK


class ClientSpatialIndex:
    """Committed avatar positions of attached clients, grid-indexed.

    The server keeps this mirror of ζ_S's avatar positions up to date at
    attach/detach time and on every commit that writes an avatar object,
    so the push cycle that first sees an action can ask "which clients
    could Equation (1) possibly admit for this?" in output-sensitive
    time.

    Clients whose committed position is unknown (no avatar object yet,
    or an avatar without coordinates) are tracked separately and
    returned from **every** candidate query — the protocol may never
    withhold an action it cannot prove irrelevant (Theorem 1).
    """

    def __init__(self) -> None:
        self._positions: Dict[ClientId, Vec2] = {}
        self._positionless: Set[ClientId] = set()
        self._grid: Optional[UniformGridIndex[ClientId]] = None
        #: Largest r_C ever attached — grows monotonically, which keeps
        #: candidate radii conservative even across detaches.
        self.max_client_radius = 0.0

    def __len__(self) -> int:
        return len(self._positions) + len(self._positionless)

    @property
    def positionless_count(self) -> int:
        """Clients currently lacking a committed position."""
        return len(self._positionless)

    def note_radius(self, radius: float) -> None:
        """Fold a newly attached client's r_C into the conservative max."""
        if radius > self.max_client_radius:
            self.max_client_radius = radius

    def update(self, client_id: ClientId, position: Optional[Vec2]) -> None:
        """Record the client's committed position (``None`` = unknown)."""
        if position is None:
            self._positions.pop(client_id, None)
            if self._grid is not None:
                self._grid.remove(client_id)
            self._positionless.add(client_id)
            return
        self._positionless.discard(client_id)
        self._positions[client_id] = position
        if self._grid is not None:
            self._grid.move(client_id, position)

    def remove(self, client_id: ClientId) -> None:
        """Forget a detached client."""
        self._positions.pop(client_id, None)
        self._positionless.discard(client_id)
        if self._grid is not None:
            self._grid.remove(client_id)

    def position_of(self, client_id: ClientId) -> Optional[Vec2]:
        """The indexed committed position, if any."""
        return self._positions.get(client_id)

    def _ensure_grid(self, query_radius: float) -> UniformGridIndex[ClientId]:
        if self._grid is None:
            # Size cells to the first query radius so a typical lookup
            # touches ~9 cells; the radius is nearly constant for a run
            # (reach + r_A + max r_C), so one sizing decision suffices.
            cell = max(1.0, query_radius)
            grid: UniformGridIndex[ClientId] = UniformGridIndex(cell_size=cell)
            for client_id, position in self._positions.items():
                grid.insert_point(client_id, position)
            self._grid = grid
        return self._grid

    def candidates(self, center: Vec2, radius: float) -> List[ClientId]:
        """Candidate recipients within ``radius`` of ``center``.

        Grid hits are exact-filtered by (slack-inflated) distance;
        position-less clients are always included.  The caller still
        runs the exact First Bound predicate on every candidate.
        """
        inflated = _inflated(radius)
        grid = self._ensure_grid(inflated)
        found = grid.query_radius_points(center, inflated)
        if self._positionless:
            found.extend(self._positionless)
        return found

    def is_candidate(self, client_id: ClientId, center: Vec2, radius: float) -> bool:
        """Whether :meth:`candidates` would return the (indexed)
        ``client_id`` — the same test, asked about one client."""
        position = self._positions.get(client_id)
        if position is None:
            return True
        dx = position.x - center.x
        dy = position.y - center.y
        inflated = _inflated(radius)
        return dx * dx + dy * dy <= inflated * inflated


class WriterIndex:
    """ObjectId -> ascending uncommitted writer positions (Algorithm 6).

    The chain walks of Algorithms 6 and 7 accumulate a read set S and
    repeatedly need "the latest still-uncommitted entry below position
    p whose write set intersects S".  :meth:`latest_writer_before`
    answers that with one bisect per object in S instead of a backwards
    scan over the whole queue.

    Positions are appended in serialization order (strictly ascending)
    and garbage-collected from the front as the commit frontier
    advances, mirroring the server queue's own GC.  Front GC uses a head
    offset with periodic compaction so both ends stay amortised O(1).
    """

    _COMPACT_THRESHOLD = 64

    def __init__(self) -> None:
        self._writers: Dict[ObjectId, List[int]] = {}
        self._heads: Dict[ObjectId, int] = {}

    def __len__(self) -> int:
        """Number of objects with at least one live uncommitted writer."""
        return sum(
            1
            for oid, positions in self._writers.items()
            if len(positions) > self._heads.get(oid, 0)
        )

    def live_positions(self, oid: ObjectId) -> List[int]:
        """The live (un-GC'd) writer positions of ``oid``, ascending."""
        positions = self._writers.get(oid, [])
        return positions[self._heads.get(oid, 0):]

    def note_enqueued(self, pos: int, writes: Iterable[ObjectId]) -> None:
        """A new entry at queue position ``pos`` declares ``writes``."""
        writers = self._writers
        for oid in writes:
            bucket = writers.get(oid)
            if bucket is None:
                writers[oid] = [pos]
            else:
                bucket.append(pos)

    def note_dequeued(self, writes: Iterable[ObjectId], base_pos: int) -> None:
        """The commit frontier advanced to ``base_pos``; prune the
        (committed or dropped) front positions of the popped entry's
        written objects."""
        for oid in writes:
            positions = self._writers.get(oid)
            if positions is None:
                continue
            head = self._heads.get(oid, 0)
            end = len(positions)
            while head < end and positions[head] < base_pos:
                head += 1
            if head >= end:
                del self._writers[oid]
                self._heads.pop(oid, None)
            elif head >= self._COMPACT_THRESHOLD and head * 2 >= end:
                del positions[:head]
                self._heads.pop(oid, None)
            elif head:
                self._heads[oid] = head

    def latest_writer_before(self, oids: Iterable[ObjectId], pos: int) -> int:
        """Highest uncommitted position strictly below ``pos`` that
        writes any of ``oids``, or -1 when there is none — one step of
        a backward chain walk."""
        best = -1
        writers = self._writers
        heads = self._heads
        # Max-accumulation: visit order cannot change `best`.
        for oid in oids:  # lint: allow(set-iteration)
            positions = writers.get(oid)
            if positions is None:
                continue
            head = heads.get(oid, 0)
            index = bisect_left(positions, pos, head)
            if index > head and positions[index - 1] > best:
                best = positions[index - 1]
        return best
