"""Calibrated seconds: wall time corrected for the host's changing speed.

The sandbox's two vCPUs flip between a fast and a slow state (about
1.8x apart) every few seconds, independently of each other, and drift
over minutes on top; the same run took 3.1 s to 6.0 s in consecutive
processes.  Readings taken before and after a run do not see flips
inside it (bracketing a 4 s run with 0.5 s kernels left the spread
unchanged; see README.md), so the speed is sampled *during* the run:

An interval timer interrupts the measured process every 50 ms; the
signal handler runs a fixed probe on the very thread and vCPU the
simulation is using, and records how long it took.  The probe has two
halves, because the slow state does not slow all code alike: 1500 steps
of heap push/pop, dict get/set and ``math.hypot`` (compute-bound), and
4000 hops along a shuffled ring of 32k small objects (cache-missing, as
the simulator's walks over queue entries and avatars are).  Either half
alone mis-corrected the validation-heavy ``sprawl_k1`` workload in
opposite directions; their mean tracks it.  A host time is then reported
in *calibrated seconds*:

    speed_i    = 2 / (compute_i / COMPUTE_REF_S + chase_i / CHASE_REF_S)
    calibrated = (raw - time inside probes) * mean of the middle 60 % of speed_i

i.e. what the run would have taken had every probe taken its reference
time.  Averaging speeds (not durations) and trimming the extremes keeps
a probe that was itself descheduled from counting as a long slow spell.

The probe never changes: changing it moves every calibrated number at
once.  It touches none of the simulator's state.
"""

from __future__ import annotations

import heapq
import math
import random
import signal
import time
from typing import Callable, List, Optional, Tuple

#: Durations of the two probe halves, with a run in progress, on a fast vCPU
#: of the machine the first baseline was recorded on.  Only scale factors:
#: they make calibrated seconds read like seconds there.
COMPUTE_REF_S = 0.0009
CHASE_REF_S = 0.00062

INTERVAL_S = 0.05
_COMPUTE_STEPS = 1500
_CHASE_STEPS = 4000
_RING = 32_768


class _Node:
    __slots__ = ("next",)


def _ring() -> _Node:
    """A cycle through ``_RING`` nodes in shuffled order (about 2 MB)."""
    nodes = [_Node() for _ in range(_RING)]
    order = list(range(_RING))
    random.Random(5).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        nodes[here].next = nodes[there]
    return nodes[0]


def compute_probe() -> float:
    """The compute-bound half; returns its wall seconds."""
    started = time.perf_counter()
    heap: list = []
    table: dict = {}
    acc = 0.0
    push, pop, hypot = heapq.heappush, heapq.heappop, math.hypot
    for i in range(_COMPUTE_STEPS):
        key = (i * 7919) % 4093
        push(heap, (float(key), i))
        table[key] = table.get(key, 0) + 1
        acc += hypot(key, i & 255)
        if i & 3 == 3:
            acc -= pop(heap)[0]
    return time.perf_counter() - started


class Speedometer:
    """Samples the interpreter's speed while a ``with`` block runs.

    ``wrap`` lets the traced run record each tick as a span, so that
    probe time is not charged to the layer it interrupted.
    """

    def __init__(self, wrap: Optional[Callable] = None) -> None:
        #: ``(compute seconds, chase seconds)`` per tick.
        self.samples: List[Tuple[float, float]] = []
        self._node = _ring()
        tick = self._tick if wrap is None else wrap(self._tick)
        self._handler = lambda signum, frame: tick()

    def _tick(self) -> None:
        compute_s = compute_probe()
        started = time.perf_counter()
        node = self._node
        for _ in range(_CHASE_STEPS):
            node = node.next
        self._node = node
        self.samples.append((compute_s, time.perf_counter() - started))

    def __enter__(self) -> "Speedometer":
        self._tick()  # a run shorter than the interval still gets a sample
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    @property
    def probe_s(self) -> float:
        """Seconds spent inside probes while the timer was armed (the
        first and last sample run outside the timed region)."""
        return sum(compute_s + chase_s for compute_s, chase_s in self.samples[1:-1])

    @property
    def speed(self) -> float:
        """Factor that turns raw seconds into calibrated seconds."""
        speeds = sorted(
            2.0 / (compute_s / COMPUTE_REF_S + chase_s / CHASE_REF_S)
            for compute_s, chase_s in self.samples
        )
        trim = len(speeds) // 5
        middle = speeds[trim:len(speeds) - trim]
        return sum(middle) / len(middle)
