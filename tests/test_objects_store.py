"""Unit + property tests for WorldObject, ObjectStore and VersionedStore."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MissingObjectError, ProtocolError
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore, OverlayStore
from repro.state.versioned import VersionedStore


def make_obj(oid="avatar:0", **attrs):
    defaults = {"x": 1.0, "y": 2.0, "health": 100}
    defaults.update(attrs)
    return WorldObject(oid, defaults)


# ---------------------------------------------------------------------------
# WorldObject
# ---------------------------------------------------------------------------
def test_object_mapping_access():
    obj = make_obj()
    assert obj["x"] == 1.0
    assert "health" in obj
    assert obj.get("missing", 7) == 7
    assert sorted(obj) == ["health", "x", "y"]


def test_object_rejects_mutable_values():
    with pytest.raises(ProtocolError):
        WorldObject("o:1", {"bad": [1, 2, 3]})
    obj = make_obj()
    with pytest.raises(ProtocolError):
        obj["bad"] = {"nested": "dict"}


def test_object_allows_tuples_and_none():
    obj = WorldObject("o:1", {"pos": (1.0, 2.0), "owner": None})
    assert obj["pos"] == (1.0, 2.0)
    assert obj["owner"] is None


def test_object_copy_is_independent():
    obj = make_obj()
    clone = obj.copy()
    clone["x"] = 99.0
    assert obj["x"] == 1.0
    assert clone.oid == obj.oid


def test_object_equality_and_hash():
    a = make_obj()
    b = make_obj()
    assert a == b
    assert hash(a) == hash(b)
    b["x"] = 5.0
    assert a != b


def test_object_update_bulk():
    obj = make_obj()
    obj.update({"x": 9.0, "health": 50})
    assert obj["x"] == 9.0
    assert obj["health"] == 50


def test_state_token_is_canonical():
    a = WorldObject("o:1", {"b": 2, "a": 1})
    b = WorldObject("o:1", {"a": 1, "b": 2})
    assert a.state_token() == b.state_token()


# ---------------------------------------------------------------------------
# ObjectStore
# ---------------------------------------------------------------------------
def test_store_put_get_contains():
    store = ObjectStore([make_obj()])
    assert "avatar:0" in store
    assert store.get("avatar:0")["x"] == 1.0
    assert len(store) == 1


def test_store_missing_raises_typed_error():
    store = ObjectStore()
    with pytest.raises(MissingObjectError) as info:
        store.get("ghost:1")
    assert info.value.oid == "ghost:1"
    assert isinstance(info.value, KeyError)


def test_values_of_returns_copies():
    store = ObjectStore([make_obj()])
    values = store.values_of(["avatar:0"])
    values["avatar:0"]["x"] = 777.0
    assert store.get("avatar:0")["x"] == 1.0


def test_values_of_missing_raises():
    store = ObjectStore([make_obj()])
    with pytest.raises(MissingObjectError):
        store.values_of(["avatar:0", "ghost:9"])


def test_values_of_present_skips_missing():
    store = ObjectStore([make_obj()])
    values = store.values_of_present(["avatar:0", "ghost:9"])
    assert set(values) == {"avatar:0"}


def test_install_overwrites_wholesale():
    store = ObjectStore([make_obj()])
    store.install({"avatar:0": {"x": 5.0}})
    obj = store.get("avatar:0")
    assert obj["x"] == 5.0
    assert "health" not in obj  # wholesale replace


def test_merge_preserves_other_attributes():
    store = ObjectStore([make_obj()])
    store.merge({"avatar:0": {"x": 5.0}})
    obj = store.get("avatar:0")
    assert obj["x"] == 5.0
    assert obj["health"] == 100  # untouched


def test_merge_creates_absent_objects():
    store = ObjectStore()
    store.merge({"new:0": {"x": 1.0}})
    assert store.get("new:0")["x"] == 1.0


def test_snapshot_is_deep():
    store = ObjectStore([make_obj()])
    snap = store.snapshot()
    snap.get("avatar:0")["x"] = 42.0
    assert store.get("avatar:0")["x"] == 1.0


def test_checksum_equal_for_equal_stores():
    a = ObjectStore([make_obj(), make_obj("wall:1", x=0.0)])
    b = a.snapshot()
    assert a.checksum() == b.checksum()
    b.get("avatar:0")["x"] = 9.0
    assert a.checksum() != b.checksum()


def test_checksum_subset():
    a = ObjectStore([make_obj(), make_obj("wall:1")])
    b = ObjectStore([make_obj()])
    assert a.checksum(["avatar:0"]) == b.checksum(["avatar:0"])


def test_diff_reports_mismatch_kinds():
    a = ObjectStore([make_obj(), make_obj("only-a:0")])
    b = ObjectStore([make_obj(), make_obj("only-b:0")])
    b.get("avatar:0")["x"] = 9.0
    diff = a.diff(b)
    assert diff["only-a:0"] == "only-in-self"
    assert diff["only-b:0"] == "only-in-other"
    assert "mismatch" in diff["avatar:0"]


# ---------------------------------------------------------------------------
# OverlayStore
# ---------------------------------------------------------------------------
def test_overlay_reads_through_to_its_base():
    base = ObjectStore([make_obj()])
    overlay = OverlayStore(base)
    base.merge({"avatar:0": {"x": 5.0}, "new:0": {"x": 1.0}})
    assert overlay.get("avatar:0")["x"] == 5.0
    assert "new:0" in overlay and "ghost:1" not in overlay
    assert sorted(obj.oid for obj in overlay.objects()) == ["avatar:0", "new:0"]
    with pytest.raises(MissingObjectError):
        overlay.get("ghost:1")


def test_overlay_writes_held_copies_only():
    base = ObjectStore([make_obj(), make_obj("wall:1")])
    overlay = OverlayStore(base)
    overlay.hold(["avatar:0"])
    overlay.get("avatar:0").update({"x": 9.0})
    base.merge({"avatar:0": {"health": 50}, "wall:1": {"x": 3.0}})
    assert base.get("avatar:0")["x"] == 1.0
    assert overlay.get("avatar:0").as_dict() == {"x": 9.0, "y": 2.0, "health": 100}
    assert overlay.get("wall:1")["x"] == 3.0
    assert [obj["x"] for obj in overlay.objects()] == [9.0, 3.0]
    overlay.release(["avatar:0"])
    assert overlay.get("avatar:0") is base.get("avatar:0")


def test_overlay_holds_an_id_its_base_lacks_as_absent():
    base = ObjectStore()
    overlay = OverlayStore(base)
    overlay.hold(["late:0"])
    base.merge({"late:0": {"x": 1.0}})
    assert "late:0" not in overlay and list(overlay.objects()) == []
    with pytest.raises(MissingObjectError):
        overlay.get("late:0")
    overlay.release()
    assert overlay.get("late:0")["x"] == 1.0


# ---------------------------------------------------------------------------
# VersionedStore
# ---------------------------------------------------------------------------
def test_versions_increment_on_writes():
    store = VersionedStore([make_obj()])
    assert store.version("avatar:0") == 1
    store.merge({"avatar:0": {"x": 2.0}})
    assert store.version("avatar:0") == 2


def test_version_of_missing_raises():
    store = VersionedStore()
    with pytest.raises(MissingObjectError):
        store.version("ghost:0")


def test_history_records_full_states():
    store = VersionedStore([make_obj()])
    store.merge({"avatar:0": {"x": 2.0}}, commit_index=5)
    history = store.history("avatar:0")
    assert len(history) == 2
    version, commit, attrs = history[-1]
    assert version == 2
    assert commit == 5
    assert attrs["x"] == 2.0
    assert attrs["health"] == 100  # merge records the merged full state


def test_versioned_snapshot_is_plain_store():
    store = VersionedStore([make_obj()])
    snap = store.snapshot()
    assert isinstance(snap, ObjectStore)
    assert not isinstance(snap, VersionedStore)
    assert snap.get("avatar:0") == store.get("avatar:0")


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------
attr_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
    st.booleans(),
)
attr_dicts = st.dictionaries(
    st.text(min_size=1, max_size=6), attr_values, min_size=1, max_size=5
)


@given(attrs=attr_dicts)
def test_install_then_values_roundtrip(attrs):
    store = ObjectStore()
    store.install({"o:0": dict(attrs)})
    assert store.values_of(["o:0"]) == {"o:0": dict(attrs)}


@given(base=attr_dicts, patch=attr_dicts)
def test_merge_is_dict_update(base, patch):
    store = ObjectStore()
    store.install({"o:0": dict(base)})
    store.merge({"o:0": dict(patch)})
    expected = dict(base)
    expected.update(patch)
    assert store.get("o:0").as_dict() == expected


@given(attrs=attr_dicts)
def test_snapshot_checksum_stability(attrs):
    store = ObjectStore()
    store.install({"o:0": dict(attrs)})
    assert store.checksum() == store.snapshot().checksum()
