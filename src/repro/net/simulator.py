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

A process that runs simulations turns CPython's cyclic garbage
collector off for the length of each run (:class:`parked_collector`).
"""

from __future__ import annotations

import gc
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


class parked_collector:
    """``with parked_collector():`` runs its body with the cyclic
    garbage collector off and puts the caller's state back on every
    exit; a caller that has it off already is left alone.

    Thresholds are not touched and nothing is collected here: what the
    body allocated waits for the caller's next collection.  Sound for a
    run because reference counting frees what its events allocate: the
    garbage only the collector can free grows with the size of a run,
    never with its length (:class:`_Periodic`; docs/performance.md, "The
    run parks the collector").  A class, not a generator, because
    leaving a generator allocates once more after the collector is back
    on, which would run that next collection inside the ``with``.
    """

    __slots__ = ("_resume",)

    def __enter__(self) -> None:
        self._resume = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._resume:
            gc.enable()


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

    def __init__(self) -> None:
        self._now: TimeMs = 0.0
        self._queue: List[_HeapEntry] = []
        self._seq = itertools.count()
        self._dispatched = 0
        self._live = 0
        #: The run's :class:`repro.obs.Observer`, attached once by whoever
        #: drives the run; every instrumented seam reads it here.
        #: ``None`` — the default — takes the identical unobserved path.
        self.obs = None

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
            return True
        return False

    def run(self, until: Optional[TimeMs] = None) -> None:
        """Run until the queue drains or ``until`` is reached.

        When ``until`` is given, every event with ``time <= until`` is
        dispatched and the clock is then advanced to exactly ``until``
        (even if the queue drained earlier), so that periodic processes
        observe a consistent end-of-run time.
        """
        while (time := self.next_event_time()) is not None:
            if until is not None and time > until:
                break
            self.step()
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
        ``interval``).  Returns a zero-argument callable that stops the
        periodic process when called.  If ``stop_at`` is given, the
        process stops itself once the clock passes that time.
        """
        if not 0 < interval < inf:
            raise SimulationError(
                f"periodic interval must be positive and finite, got {interval}"
            )
        return _Periodic(self, interval, callback, start_delay, stop_at).stop


class _Periodic:
    """One :meth:`Simulator.call_every` process.

    It is never part of a reference cycle that outlives it: its pending
    :class:`Event` holds the bound :meth:`fire` only until dispatch, and
    an ended process — stopped, or past ``stop_at`` — has let go of its
    callback, so reference counting frees it and whatever the callback
    held (docs/performance.md, "The run parks the collector").
    """

    __slots__ = ("_sim", "_interval", "_callback", "_stop_at", "_event")

    def __init__(self, sim: Simulator, interval, callback, start_delay, stop_at) -> None:
        self._sim = sim
        self._interval = interval
        self._callback: Optional[Callable[[], None]] = callback
        self._stop_at = inf if stop_at is None else stop_at
        self._event = sim.schedule(interval if start_delay is None else start_delay, self.fire)

    def fire(self) -> None:
        if self._callback is None:
            return  # stopped by its own callback; see below
        self._callback()
        if self._sim._now + self._interval > self._stop_at:
            self._callback = None
            return
        # Rescheduled even when the callback has just stopped the
        # process, which makes that firing a no-op: the event count and
        # the final clock of every run depend on it.
        self._event = self._sim.schedule(self._interval, self.fire)

    def stop(self) -> None:
        """End the process; its pending firing is cancelled (a no-op
        once dispatched)."""
        self._callback = None
        self._event.cancel()
