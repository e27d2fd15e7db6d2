"""Point-to-point link model: propagation latency plus serialization delay.

A :class:`Link` is a unidirectional FIFO pipe.  A message of *b* bytes
sent at time *t* on a link with one-way latency *L* ms and bandwidth *W*
bits/s is delivered at::

    max(t, link_free) + b*8/W*1000 + L

i.e. messages queue behind earlier messages still being serialized onto
the wire (head-of-line blocking), then propagate for *L* ms.  This is the
standard store-and-forward model and is what turns the paper's 100 Kbps
cap into a real constraint for the Broadcast architecture.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.errors import NetworkError
from repro.net.simulator import Simulator
from repro.types import ClientId, TimeMs


class Link:
    """Unidirectional link from ``src`` to ``dst``.

    ``bandwidth_bps`` of ``None`` (or 0) means infinite bandwidth — no
    serialization delay, latency only.
    """

    def __init__(
        self,
        sim: Simulator,
        src: ClientId,
        dst: ClientId,
        *,
        latency_ms: TimeMs,
        bandwidth_bps: Optional[float] = None,
    ) -> None:
        if latency_ms < 0:
            raise NetworkError(f"latency must be non-negative, got {latency_ms}")
        if bandwidth_bps is not None and bandwidth_bps < 0:
            raise NetworkError(f"bandwidth must be non-negative, got {bandwidth_bps}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.latency_ms = latency_ms
        self.bandwidth_bps = bandwidth_bps or None
        self._wire_free_at: TimeMs = 0.0
        self._last_arrival: TimeMs = 0.0
        #: Messages currently in flight (for diagnostics).
        self.in_flight: int = 0
        #: Total messages delivered over this link.
        self.delivered: int = 0
        #: Messages that reached the far end but could not be delivered
        #: (dropped by fault injection, or the destination is gone).
        self.undelivered: int = 0

    def serialization_delay(self, size_bytes: int) -> TimeMs:
        """Milliseconds needed to clock ``size_bytes`` onto the wire."""
        if self.bandwidth_bps is None:
            return 0.0
        return size_bytes * 8.0 / self.bandwidth_bps * 1000.0

    def transmit(
        self,
        size_bytes: int,
        deliver: Callable[[Any], Optional[bool]],
        record: Any,
        extra_delay: TimeMs = 0.0,
    ) -> TimeMs:
        """Send a message; ``deliver(record)`` runs at the arrival time.

        Returns the (absolute) delivery time, which callers may use for
        bookkeeping.  FIFO order is guaranteed per link even when
        ``extra_delay`` (fault-injected jitter) varies per message: a
        message can never arrive before one sent earlier.  ``deliver``
        may return ``False`` to report that the message reached the far
        end but was not handed to anyone (fault drop, dead host); such
        messages count as ``undelivered`` rather than ``delivered``.
        """
        arrival = self.remote_arrival(size_bytes, extra_delay)
        self.in_flight += 1
        self.sim.post_at(arrival, self._arrive, (deliver, record))
        return arrival

    def _arrive(self, message: Tuple[Callable[[Any], Optional[bool]], Any]) -> None:
        deliver, record = message
        self.in_flight -= 1
        if deliver(record) is False:
            self.undelivered += 1
        else:
            self.delivered += 1

    def remote_arrival(
        self, size_bytes: int, extra_delay: TimeMs = 0.0
    ) -> TimeMs:
        """Occupy the wire for one message and return its arrival time,
        without scheduling a delivery: :meth:`transmit` is this plus its
        counters and its arrival event.

        Called on its own by the windowed partition backends
        (:mod:`repro.net.backend`) for messages whose destination lives
        in another partition: the sender side computes the arrival time
        (advancing this link's wire/FIFO state so later local traffic
        queues behind it identically), and the owning partition injects
        the delivery at that time.  The ``in_flight``/``delivered``
        diagnostic counters are not touched — the delivery happens on
        the peer replica's copy of this link's destination.
        """
        if size_bytes < 0:
            raise NetworkError(f"message size must be non-negative, got {size_bytes}")
        obs = self.sim.obs
        if obs is not None:
            obs.on_link_transmit(size_bytes, self.queue_delay())
        start = max(self.sim.now, self._wire_free_at)
        self._wire_free_at = start + self.serialization_delay(size_bytes)
        arrival = self._wire_free_at + self.latency_ms + extra_delay
        arrival = max(arrival, self._last_arrival)
        self._last_arrival = arrival
        return arrival

    def queue_delay(self) -> TimeMs:
        """Current backlog: how long a new message would wait before its
        first byte hits the wire."""
        return max(0.0, self._wire_free_at - self.sim.now)
