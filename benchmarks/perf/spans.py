"""In-memory span recorder for the per-layer trace.

A span is one call into a layer: name, start, end, and the span that
was open when it began (its parent).  The recorder keeps every span in
a flat array until the run ends, and keeps three running totals per
name:

``calls``    spans closed under that name;
``self_s``   span time minus the time its child spans cover — what the
             layer itself spent, so the ``self_s`` of all names add up
             to the duration of the root span exactly;
``total_s``  span time including children, counted only for the
             outermost span of a name so recursion is not counted twice.

The clock is read last in :meth:`SpanRecorder.begin` and first in
:meth:`SpanRecorder.end`, so the recorder's own bookkeeping is charged
to the *parent's* self time, never to the span being measured.
"""

from __future__ import annotations

import itertools
import json
import time
from array import array
from typing import Callable, Dict, List

#: Parent id of a span opened while no other span was open.
ROOT = -1

#: Doubles stored per span in :attr:`SpanRecorder.spans`.
FIELDS = 5


class SpanRecorder:
    """Records nested spans and their per-name self-time totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        self._depth: List[int] = []
        #: Ids of the spans currently open, outermost first.
        self._open: List[int] = [ROOT]
        #: Child-span seconds seen so far by each open span; slot 0
        #: collects the spans opened at the root.
        self._child_s: List[float] = [0.0]
        #: Span ids.  ``next()`` on a counter cannot be split by the
        #: calibration timer's signal handler, which records spans too.
        self._ids_issued = itertools.count()
        #: ``(id, name id, start, end, parent id)`` per closed span, in
        #: closing order.
        self.spans = array("d")

    def name_id(self, name: str) -> int:
        """The small integer ``begin``/``end`` take for ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self._depth.append(0)
        return nid

    def begin(self, nid: int) -> float:
        """Open a span; returns its start time, to hand back to ``end``."""
        self._open.append(next(self._ids_issued))
        self._child_s.append(0.0)
        self._depth[nid] += 1
        return self.clock()

    def end(self, nid: int, start: float) -> None:
        """Close the innermost open span, which ``begin(nid)`` opened."""
        end = self.clock()
        duration = end - start
        span_id = self._open.pop()
        children_s = self._child_s.pop()
        self._child_s[-1] += duration
        self.calls[nid] += 1
        self.self_s[nid] += duration - children_s
        depth = self._depth[nid] = self._depth[nid] - 1
        if depth == 0:
            self.total_s[nid] += duration
        self.spans.extend((span_id, nid, start, end, self._open[-1]))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            start = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                end(nid, start)

        traced.__wrapped__ = fn
        return traced

    @property
    def open_spans(self) -> int:
        """Spans begun and not yet ended (0 once a run is over)."""
        return len(self._open) - 1

    @property
    def root_s(self) -> float:
        """Seconds covered by the spans opened at the root."""
        return self._child_s[0]

    def table(self) -> Dict[str, Dict[str, float]]:
        """``name -> {calls, self_s, total_s}`` for every name seen."""
        return {
            name: {
                "calls": self.calls[nid],
                "self_s": self.self_s[nid],
                "total_s": self.total_s[nid],
            }
            for nid, name in enumerate(self.names)
        }

    def write_chrome(self, path: str) -> None:
        """Write the spans as a Chrome ``trace_event`` file.

        Open it at ``chrome://tracing`` or https://ui.perfetto.dev; each
        event carries its span id and parent id under ``args``.
        """
        spans = self.spans
        origin = min(spans[2::FIELDS], default=0.0)
        events = [
            {
                "name": self.names[int(spans[i + 1])],
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (spans[i + 2] - origin) * 1e6,
                "dur": (spans[i + 3] - spans[i + 2]) * 1e6,
                "args": {"id": int(spans[i]), "parent": int(spans[i + 4])},
            }
            for i in range(0, len(spans), FIELDS)
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)
