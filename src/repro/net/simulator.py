"""Deterministic discrete-event simulator with a virtual millisecond clock.

The simulator is the substrate that replaces the paper's EMULab testbed.
All protocol components (clients, servers, links, CPUs) schedule work on
a single :class:`Simulator`; time only advances when the event at the
head of the queue is dispatched.  Ties are broken by insertion order, so
a run is fully reproducible given the same inputs.

The heap holds plain ``(time, seq, fn, arg)`` tuples and dispatch is
``fn(arg)``: ``seq`` is unique, so comparisons never reach the callable
and stay in C-speed tuple ordering, and an event costs its tuple and
nothing else (:meth:`Simulator.post`).  An :class:`Event` handle is
allocated only for the callers that keep one to cancel
(:meth:`Simulator.schedule`); the live-event count is maintained
incrementally so :attr:`Simulator.pending` is O(1) instead of an O(n)
queue scan (see docs/performance.md).
"""

from __future__ import annotations

import heapq
import itertools
from math import inf
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.types import TimeMs


class Event:
    """Cancellable handle for a scheduled callback (see
    :meth:`Simulator.schedule`); ``time`` is when it is due."""

    __slots__ = ("time", "callback", "cancelled", "_sim")

    def __init__(
        self, time: TimeMs, callback: Callable[[], None], sim: "Simulator"
    ) -> None:
        self.time = time
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event's callback from running.

        Cancelling an already-dispatched or already-cancelled event is a
        harmless no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self.callback is not None:
            # Not yet dispatched: release the closure and keep the live
            # counter exact (dispatch clears callback before running it).
            self.callback = None
            self._sim._live -= 1

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else (
            "pending" if self.callback is not None else "dispatched"
        )
        return f"Event(time={self.time}, {state})"


def _fire(event: Event) -> None:
    """The ``fn`` of a heap entry whose ``arg`` is an :class:`Event`
    handle: run its callback, once."""
    callback = event.callback
    event.callback = None
    callback()


#: One heap slot: (time, seq, fn, arg).  seq is unique, so fn and arg
#: are never compared.  ``fn is _fire`` marks a handle entry — the only
#: kind that can have been cancelled.
_HeapEntry = Tuple[TimeMs, int, Callable[[Any], None], Any]


class Simulator:
    """Priority-queue driven virtual clock.

    Usage::

        sim = Simulator()
        sim.post(10.0, print, "ten ms in")
        timer = sim.schedule(20.0, lambda: print(sim.now))  # cancellable
        sim.run()

    The clock unit is the millisecond throughout this package, matching
    the paper's reporting unit.
    """

    def __init__(self, *, obs=None) -> None:
        """``obs`` is an optional :class:`repro.obs.Observer`; when
        attached, every dispatch is counted.  ``None`` — the default —
        takes the identical unobserved code path."""
        self._now: TimeMs = 0.0
        self._queue: List[_HeapEntry] = []
        self._seq = itertools.count()
        self._dispatched = 0
        self._live = 0
        self._obs = obs

    @property
    def now(self) -> TimeMs:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-dispatched, not-cancelled events (O(1))."""
        return self._live

    @property
    def dispatched(self) -> int:
        """Total number of events dispatched so far (for diagnostics)."""
        return self._dispatched

    def post(self, delay: TimeMs, fn: Callable[[Any], None], arg: Any) -> None:
        """Schedule ``fn(arg)`` to run ``delay`` ms from now.

        The handle-free form every per-message caller uses: the event
        is its heap tuple.  Raises :class:`SimulationError` for a
        negative (or NaN) delay — scheduling into the past would
        silently reorder causality.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule {delay}ms into the past")
        heapq.heappush(self._queue, (self._now + delay, next(self._seq), fn, arg))
        self._live += 1

    def post_at(self, time: TimeMs, fn: Callable[[Any], None], arg: Any) -> None:
        """:meth:`post` at absolute virtual time ``time``."""
        self.post(time - self._now, fn, arg)

    def schedule(self, delay: TimeMs, callback: Callable[[], None]) -> Event:
        """:meth:`post` for a caller that may change its mind: returns
        the :class:`Event`, which the caller may ``cancel()``."""
        event = Event(self._now + delay, callback, self)
        self.post(delay, _fire, event)
        return event

    def schedule_at(self, time: TimeMs, callback: Callable[[], None]) -> Event:
        """:meth:`schedule` at absolute virtual time ``time``."""
        return self.schedule(time - self._now, callback)

    def step(self) -> bool:
        """Dispatch the single next event.

        Returns ``True`` if an event was dispatched, ``False`` if the
        queue was empty.  Cancelled events are skipped silently.
        """
        queue = self._queue
        while queue:
            time, _seq, fn, arg = heapq.heappop(queue)
            if fn is _fire and arg.cancelled:
                continue  # already removed from the live count
            self._live -= 1
            self._now = time
            self._dispatched += 1
            fn(arg)
            if self._obs is not None:
                self._obs.on_dispatch()
            return True
        return False

    def run(
        self,
        until: Optional[TimeMs] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` have been dispatched.

        When ``until`` is given, every event with ``time <= until`` is
        dispatched and the clock is then advanced to exactly ``until``
        (even if the queue drained earlier), so that periodic processes
        observe a consistent end-of-run time.
        """
        dispatched = 0
        while (time := self.next_event_time()) is not None:
            if until is not None and time > until:
                break
            if max_events is not None and dispatched >= max_events:
                return
            self.step()
            dispatched += 1
        if until is not None and until > self._now:
            self._now = until

    def run_window(self, end: TimeMs) -> None:
        """Dispatch every event with ``time < end``, then set the clock
        to exactly ``end``.

        The half-open counterpart of :meth:`run`: windowed execution
        (the epoch-barrier backend, :mod:`repro.net.backend`) advances
        replicas in ``[start, end)`` slices, and an event scheduled at
        precisely the barrier time must run in the *next* window — after
        any cross-partition messages arriving at that instant have been
        injected.
        """
        while (time := self.next_event_time()) is not None and time < end:
            self.step()
        if end > self._now:
            self._now = end

    def next_event_time(self) -> Optional[TimeMs]:
        """Time of the earliest pending event, or ``None`` when idle."""
        queue = self._queue
        while queue:
            time, _seq, fn, arg = queue[0]
            if fn is _fire and arg.cancelled:
                heapq.heappop(queue)
                continue
            return time
        return None

    def call_every(
        self,
        interval: TimeMs,
        callback: Callable[[], None],
        *,
        start_delay: Optional[TimeMs] = None,
        stop_at: Optional[TimeMs] = None,
    ) -> Callable[[], None]:
        """Install a periodic callback every ``interval`` ms.

        The first firing happens after ``start_delay`` (default: one
        ``interval``).  Returns a zero-argument function that stops the
        periodic process when called.  If ``stop_at`` is given, the
        process stops itself once the clock passes that time.
        """
        if not 0 < interval < inf:
            raise SimulationError(
                f"periodic interval must be positive and finite, got {interval}"
            )
        stopped = False

        def fire() -> None:
            nonlocal event
            if stopped:
                return
            callback()
            if stop_at is not None and self._now + interval > stop_at:
                return
            event = self.schedule(interval, fire)

        event = self.schedule(interval if start_delay is None else start_delay, fire)

        def stop() -> None:
            nonlocal stopped
            stopped = True
            event.cancel()  # a no-op once dispatched

        return stop
