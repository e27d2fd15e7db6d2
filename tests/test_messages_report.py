"""Unit tests for protocol message sizing, report tables, types helpers,
and the interest-class rules."""

from __future__ import annotations

import pytest

from repro.core.action import ActionId, ActionResult, BlindWrite
from repro.core.interest import DEFAULT_CLASS, is_consequential, profile
from repro.core.messages import (
    AbortNotice,
    ActionBatch,
    Completion,
    OrderedAction,
    RelayedAction,
    StateUpdate,
    SubmitAction,
    wire_size,
)
from repro.metrics.report import Table
from repro.types import SERVER_ID, oid, oid_index, oid_kind


def blind(n_objects=1, n_attrs=1):
    return BlindWrite.from_server(
        0,
        {
            f"o:{i}": {f"a{j}": j for j in range(n_attrs)}
            for i in range(n_objects)
        },
    )


# ---------------------------------------------------------------------------
# wire sizes
# ---------------------------------------------------------------------------
def test_submit_size_wraps_action():
    action = blind()
    assert wire_size(SubmitAction(action)) == 16 + action.wire_size()


def test_batch_size_sums_entries():
    action = blind()
    batch = ActionBatch((OrderedAction(0, action), OrderedAction(1, action)))
    assert wire_size(batch) == 16 + 2 * (8 + action.wire_size())


def test_completion_size_scales_with_result():
    small = Completion(0, ActionId(0, 0), ActionResult.of({"o:0": {"x": 1}}))
    big = Completion(0, ActionId(0, 0), ActionResult.of({"o:0": {"x": 1, "y": 2}}))
    assert wire_size(big) == wire_size(small) + 12


def test_abort_notice_fixed_size():
    assert wire_size(AbortNotice(ActionId(0, 0))) == 24


def test_state_update_size():
    update = StateUpdate(ActionResult.of({"o:0": {"x": 1}}).written)
    assert wire_size(update) == 24 + 8 + 12


def test_relayed_action_size():
    action = blind()
    assert wire_size(RelayedAction(action)) == 24 + action.wire_size()


def test_unknown_message_type_rejected():
    with pytest.raises(TypeError):
        wire_size("not a message")


# ---------------------------------------------------------------------------
# interest classes
# ---------------------------------------------------------------------------
def test_profile_always_includes_default():
    assert DEFAULT_CLASS in profile("insect")
    assert profile() == frozenset({DEFAULT_CLASS})


def test_is_consequential_rules():
    assert is_consequential("anything", None)
    assert is_consequential(DEFAULT_CLASS, profile("human"))
    assert is_consequential("human", profile("human"))
    assert not is_consequential("insect", profile("human"))


# ---------------------------------------------------------------------------
# types helpers
# ---------------------------------------------------------------------------
def test_oid_helpers():
    assert oid("avatar", 3) == "avatar:3"
    assert oid_kind("wall:17") == "wall"
    assert oid_index("wall:17") == 17
    assert SERVER_ID == -1


# ---------------------------------------------------------------------------
# report tables
# ---------------------------------------------------------------------------
def test_table_rendering_aligns_and_formats():
    table = Table("Demo", ("name", "value"), note="a note")
    table.add_row("alpha", 1234.5678)
    table.add_row("b", None)
    text = table.render()
    assert "Demo" in text
    assert "1,235" in text  # thousands formatting
    assert "n/a" in text
    assert "note: a note" in text


def test_table_wrong_arity_rejected():
    table = Table("Demo", ("a", "b"))
    with pytest.raises(ValueError):
        table.add_row(1)


def test_table_float_precision_rules():
    table = Table("Demo", ("v",))
    table.add_row(3.14159)
    table.add_row(42.123)
    text = table.render()
    assert "3.14" in text
    assert "42.1" in text


def test_empty_table_renders_headers():
    table = Table("Empty", ("col",))
    assert "col" in table.render()


def test_nan_rendered_as_na():
    table = Table("Demo", ("v",))
    table.add_row(float("nan"))
    assert "n/a" in table.render()
