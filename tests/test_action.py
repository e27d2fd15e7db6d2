"""Unit tests for the action framework (Action, ActionResult, BlindWrite)."""

from __future__ import annotations

import pytest

from repro.core.action import (
    ABORT_RESULT,
    Action,
    ActionId,
    ActionResult,
    BlindWrite,
)
from repro.errors import ActionAborted, ProtocolError
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore
from repro.types import SERVER_ID


class IncrementAction(Action):
    """Test action: counter += amount (reads and writes the counter)."""

    def __init__(self, action_id, oid="counter:0", amount=1, undeclared=False):
        super().__init__(
            action_id,
            reads=frozenset({oid}),
            writes=frozenset({oid}),
            cost_ms=1.0,
        )
        self.oid = oid
        self.amount = amount
        self.undeclared = undeclared

    def compute(self, store):
        if self.undeclared:
            return {"other:0": {"value": 1}}
        value = int(store.get(self.oid)["value"]) + self.amount
        if value > 100:
            raise ActionAborted("overflow")
        return {self.oid: {"value": value}}


@pytest.fixture
def store():
    return ObjectStore([WorldObject("counter:0", {"value": 10})])


def aid(seq=0, client=1):
    return ActionId(client, seq)


class _Configurable(Action):
    """Minimal concrete action for constructor-validation tests."""

    def compute(self, store):
        return {}


def test_rs_must_contain_ws():
    with pytest.raises(ProtocolError):
        _Configurable(aid(), reads=frozenset(), writes=frozenset({"x:0"}))


def test_negative_radius_rejected():
    with pytest.raises(ProtocolError):
        _Configurable(aid(), reads=frozenset({"a"}), writes=frozenset(), radius=-1.0)


def test_negative_cost_rejected():
    with pytest.raises(ProtocolError):
        _Configurable(aid(), reads=frozenset({"a"}), writes=frozenset(), cost_ms=-0.1)


def test_apply_writes_back_and_returns_result(store):
    action = IncrementAction(aid(), amount=5)
    result = action.apply(store)
    assert store.get("counter:0")["value"] == 15
    assert result == ActionResult.of({"counter:0": {"value": 15}})
    assert not result.aborted


def test_apply_is_deterministic_across_replicas(store):
    action = IncrementAction(aid(), amount=3)
    replica = store.snapshot()
    assert action.apply(store) == action.apply(replica)
    assert store.get("counter:0") == replica.get("counter:0")


def test_abort_behaves_as_noop(store):
    store.get("counter:0")["value"] = 100
    action = IncrementAction(aid(), amount=5)
    result = action.apply(store)
    assert result.aborted
    assert result == ABORT_RESULT
    assert store.get("counter:0")["value"] == 100


def test_undeclared_write_raises(store):
    store.put(WorldObject("other:0", {"value": 0}))
    action = IncrementAction(aid(), undeclared=True)
    with pytest.raises(ProtocolError):
        action.apply(store)


def test_result_equality_is_value_based():
    a = ActionResult.of({"x:0": {"v": 1}, "y:0": {"w": 2}})
    b = ActionResult.of({"y:0": {"w": 2}, "x:0": {"v": 1}})
    assert a == b
    assert a != ActionResult.of({"x:0": {"v": 2}, "y:0": {"w": 2}})
    assert a != ABORT_RESULT


def test_result_values_roundtrip():
    values = {"x:0": {"v": 1}}
    result = ActionResult.of(values)
    assert result.values() == values
    assert result.written_ids() == frozenset({"x:0"})


def test_stable_nonce_is_deterministic_and_spread():
    a1 = IncrementAction(ActionId(1, 5))
    a2 = IncrementAction(ActionId(1, 5))
    a3 = IncrementAction(ActionId(1, 6))
    assert a1.stable_nonce() == a2.stable_nonce()
    assert a1.stable_nonce() != a3.stable_nonce()


def test_wire_size_scales_with_sets():
    small = IncrementAction(aid())
    assert small.wire_size() == 48 + 8 * 2 + 16


def test_client_id_property():
    assert IncrementAction(ActionId(7, 0)).client_id == 7


def test_blind_write_installs_absent_objects():
    store = ObjectStore()
    blind = BlindWrite.from_server(0, {"new:0": {"x": 1.0}})
    result = blind.apply(store)
    assert store.get("new:0")["x"] == 1.0
    assert result.written_ids() == frozenset({"new:0"})
    assert blind.client_id == SERVER_ID


def test_blind_write_overwrites_wholesale(store):
    blind = BlindWrite(aid(), {"counter:0": {"value": 99}})
    blind.apply(store)
    assert store.get("counter:0")["value"] == 99


def test_blind_write_values_are_copies():
    blind = BlindWrite.from_server(0, {"a:0": {"x": 1}})
    blind.values()["a:0"]["x"] = 999
    assert blind.values() == {"a:0": {"x": 1}}
    # Neither an installed nor a merged object shares the blind write's
    # attribute dicts: a later write to the store leaves it unchanged.
    merged = BlindWrite(ActionId(SERVER_ID, 1), {"a:0": {"x": 1}}, origin=ActionId(1, 0))
    for write in (blind, merged):
        for store in (ObjectStore(), ObjectStore([WorldObject("a:0", {"x": 0, "y": 5})])):
            write.apply(store)
            store.get("a:0")["x"] = 999
            assert write.values() == {"a:0": {"x": 1}}


def test_blind_write_rs_equals_ws():
    blind = BlindWrite.from_server(0, {"a:0": {"x": 1}, "b:0": {"y": 2}})
    assert blind.reads == blind.writes == frozenset({"a:0", "b:0"})


def test_blind_write_wire_size():
    blind = BlindWrite.from_server(0, {"a:0": {"x": 1, "y": 2}})
    assert blind.wire_size() == 16 + 8 + 24


def test_action_id_repr():
    assert repr(ActionId(3, 14)) == "a[3.14]"
