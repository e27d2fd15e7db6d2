"""Span self-time arithmetic, on a hand-driven clock."""

import json

import pytest

from spans import FIELDS, ROOT, SpanRecorder


class Clock:
    """A clock that only moves when a test advances it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make():
    clock = Clock()
    return clock, SpanRecorder(clock)


def test_self_time_is_span_minus_children():
    clock, rec = make()

    def leaf():
        clock.advance(2.0)

    leaf = rec.wrap("leaf", leaf)

    def parent():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)
        leaf()

    rec.wrap("parent", parent)()
    table = rec.table()
    assert table["parent"] == {"calls": 1, "self_s": 1.5, "total_s": 5.5}
    assert table["leaf"] == {"calls": 2, "self_s": 4.0, "total_s": 4.0}
    assert sum(row["self_s"] for row in table.values()) == rec.root_s == 5.5


def test_spans_carry_name_start_end_parent():
    clock, rec = make()

    def inner():
        clock.advance(1.0)

    inner = rec.wrap("inner", inner)
    rec.wrap("outer", inner)()
    spans = [tuple(rec.spans[i:i + FIELDS]) for i in range(0, len(rec.spans), FIELDS)]
    # Closing order: the child first.  (id, name id, start, end, parent id)
    assert spans == [
        (1.0, rec.name_id("inner"), 0.0, 1.0, 0.0),
        (0.0, rec.name_id("outer"), 0.0, 1.0, float(ROOT)),
    ]


def test_exception_closes_the_span_and_propagates():
    clock, rec = make()

    def boom():
        clock.advance(1.0)
        raise ValueError("boom")

    boom = rec.wrap("boom", boom)

    def caller():
        clock.advance(1.0)
        try:
            boom()
        except ValueError:
            clock.advance(3.0)

    rec.wrap("caller", caller)()
    with pytest.raises(ValueError):
        boom()
    assert rec.open_spans == 0
    table = rec.table()
    assert table["boom"]["calls"] == 2 and table["boom"]["self_s"] == 2.0
    assert table["caller"]["self_s"] == 4.0


def test_recursion_counts_total_once_and_self_exactly():
    clock, rec = make()

    def countdown(n):
        clock.advance(1.0)
        if n:
            traced(n - 1)

    traced = rec.wrap("countdown", countdown)
    traced(2)
    assert rec.table()["countdown"] == {"calls": 3, "self_s": 3.0, "total_s": 3.0}


def test_mutual_reentry_through_another_layer():
    clock, rec = make()

    def a(n):
        clock.advance(1.0)
        if n:
            b(n)

    def b(n):
        clock.advance(10.0)
        a(n - 1)

    a = rec.wrap("a", a)
    b = rec.wrap("b", b)
    a(2)
    table = rec.table()
    assert table["a"] == {"calls": 3, "self_s": 3.0, "total_s": 23.0}
    assert table["b"] == {"calls": 2, "self_s": 20.0, "total_s": 22.0}
    assert sum(row["self_s"] for row in table.values()) == rec.root_s


def test_chrome_trace_has_one_event_per_span(tmp_path):
    clock, rec = make()

    def work():
        clock.advance(0.25)

    rec.wrap("outer", rec.wrap("inner", work))()
    path = tmp_path / "trace.json"
    rec.write_chrome(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert [(e["name"], e["dur"], e["args"]["parent"]) for e in events] == [
        ("inner", 250000.0, 0),
        ("outer", 250000.0, ROOT),
    ]
