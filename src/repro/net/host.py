"""Host CPU model: a single sequential processor with a FIFO work queue.

The paper's scalability results are queueing phenomena — a Central server
(or a Broadcast client) falls over when the evaluation demand per 300 ms
move round exceeds what one CPU can process in 300 ms.  :class:`Host`
models exactly that: work items are processed one at a time, each
occupying the CPU for its declared cost, and a completion callback fires
when the item finishes.  Saturated hosts accumulate queueing delay, which
is what the response-time figures measure.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.errors import SimulationError
from repro.net.simulator import Simulator
from repro.types import ClientId, TimeMs


#: One queued work item: ``(cost_ms, run, enqueued_at)``.
_Queued = Tuple[TimeMs, Callable[[], None], TimeMs]


class Host:
    """A simulated machine with one CPU and a FIFO run queue.

    ``speed_factor`` scales all costs (a host with ``speed_factor=2.0``
    takes twice as long per item); the paper's client machines also ran
    background programs, which an experiment can model this way.
    """

    def __init__(
        self,
        sim: Simulator,
        host_id: ClientId,
        *,
        speed_factor: float = 1.0,
        obs=None,
    ) -> None:
        if speed_factor <= 0:
            raise SimulationError(f"speed_factor must be positive, got {speed_factor}")
        self.sim = sim
        self.host_id = host_id
        self.speed_factor = speed_factor
        #: Optional :class:`repro.obs.Observer` recording each serviced
        #: work item (span + queue-delay histogram); never affects costs.
        self._obs = obs
        self._queue: Deque[_Queued] = deque()
        self._running = False
        #: Total CPU-milliseconds consumed so far (post scaling).
        self.cpu_time_used: TimeMs = 0.0
        #: Number of work items completed.
        self.items_completed: int = 0
        #: Sum of queueing delays (enqueue -> start), for diagnostics.
        self.total_queue_delay: TimeMs = 0.0

    @property
    def queue_length(self) -> int:
        """Number of work items waiting (not counting the one running)."""
        return len(self._queue)

    @property
    def busy(self) -> bool:
        """Whether the CPU is currently executing a work item."""
        return self._running

    def execute(self, cost_ms: TimeMs, on_done: Callable[[], None]) -> None:
        """Enqueue a work item costing ``cost_ms`` CPU milliseconds.

        ``on_done`` runs (at virtual time item-start + scaled cost) when
        the item completes.  Zero-cost items still round-trip through the
        queue so that ordering with queued work is preserved.
        """
        if cost_ms < 0:
            raise SimulationError(f"work cost must be non-negative, got {cost_ms}")
        self._queue.append((cost_ms, on_done, self.sim.now))
        if not self._running:
            self._start_next()

    def _start_next(self) -> None:
        if not self._queue:
            self._running = False
            return
        self._running = True
        cost_ms, run, enqueued_at = self._queue.popleft()
        scaled = cost_ms * self.speed_factor
        started_at = self.sim.now
        queue_delay = started_at - enqueued_at
        self.total_queue_delay += queue_delay
        self.sim.post(scaled, self._finish, (scaled, run, started_at, queue_delay))

    def _finish(self, item: tuple) -> None:
        """The running item's completion event — ``(scaled cost, run,
        started_at, queue_delay)``: account for it, run its callback,
        start the next one."""
        scaled, run, started_at, queue_delay = item
        self.cpu_time_used += scaled
        self.items_completed += 1
        if self._obs is not None:
            self._obs.on_host_service(self.host_id, started_at, scaled, queue_delay)
        run()
        self._start_next()

    def utilization(self, elapsed: Optional[TimeMs] = None) -> float:
        """Fraction of virtual time this CPU has spent busy.

        ``elapsed`` defaults to the simulator's current time; a zero
        elapsed time yields utilisation 0.0.
        """
        total = self.sim.now if elapsed is None else elapsed
        if total <= 0:
            return 0.0
        return min(1.0, self.cpu_time_used / total)
