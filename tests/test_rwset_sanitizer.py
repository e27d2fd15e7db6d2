"""Regression tests for the dynamic RW-set sanitizer
(docs/static_analysis.md) — and for the protocol hole it closes.

:meth:`Action.apply` has always rejected values computed for undeclared
*writes*, but an undeclared *read* was invisible: an action whose
``compute`` peeks at an object outside RS(a) still applies cleanly, and
two replicas that agree on RS(a) but differ on the peeked object
silently diverge — exactly the Theorem 1 failure the declared sets
exist to prevent.  The first tests demonstrate that divergence on plain
stores; the rest prove the sanitizer catches the lie, in both modes, on
both the unit store and a fully assembled engine.
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import (
    RWSetViolation,
    SanitizedStore,
    SanitizerRecorder,
    ambient_mode,
    wrap_store,
)
from repro.core.action import Action, ActionId
from repro.core.client import ProtocolClient
from repro.core.engine import SeveConfig, SeveEngine
from repro.errors import ProtocolError
from repro.net.host import Host
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.state.objects import WorldObject
from repro.state.store import ObjectStore
from repro.types import SERVER_ID


class LyingReadAction(Action):
    """Declares RS = WS = {target} but bases its write on ``peek``."""

    def __init__(self, action_id: ActionId, target: str, peek: str = "wind"):
        super().__init__(
            action_id,
            reads=frozenset({target}),
            writes=frozenset({target}),
        )
        self.target = target
        self.peek = peek

    def compute(self, store):
        direction = store.get(self.peek).get("direction")
        return {self.target: {"pos": direction}}


class LyingWriteAction(Action):
    """Declares RS = WS = {target} but merges state into 'bystander'."""

    def __init__(self, action_id: ActionId, target: str):
        super().__init__(
            action_id,
            reads=frozenset({target}),
            writes=frozenset({target}),
        )
        self.target = target

    def compute(self, store):
        return {self.target: {"pos": store.get(self.target).get("pos")}}

    def _apply(self, store):
        store.merge({"bystander": {"hit": True}})
        return super()._apply(store)


class SneakyAction(Action):
    """Declares RS = WS = {target} and escapes them one way: a read of
    an undeclared attribute's id, of a literal id, of the whole store, or
    a write keyed by the undeclared id."""

    def __init__(self, action_id: ActionId, target: str, victim: str, escape: str):
        self.victim = victim  # never fed into reads=/writes=
        super().__init__(
            action_id,
            reads=frozenset({target}),
            writes=frozenset({target}),
        )
        self.target = target
        self.escape = escape

    def compute(self, store):
        pos = store.get(self.target).get("pos")
        if self.escape == "attribute":
            pos = store.get(self.victim).get("hit")
        elif self.escape == "literal":
            pos = store.get("wind").get("direction")
        elif self.escape == "whole store":
            for oid in store:
                pos += 0
        written = self.victim if self.escape == "write" else self.target
        return {written: {"pos": pos}}


class EnumeratingAction(Action):
    """Declares every object of :func:`_replica` and enumerates the store."""

    def __init__(self, enumerate_store):
        everything = frozenset({"avatar", "wind", "bystander"})
        super().__init__(ActionId(0, 0), reads=everything, writes=everything)
        self.enumerate_store = enumerate_store

    def compute(self, store):
        self.enumerate_store(store)
        return {}


def _replica(wind_direction: int, store_cls=ObjectStore, **kwargs):
    return store_cls(
        [
            WorldObject("avatar", {"pos": 0}),
            WorldObject("wind", {"direction": wind_direction}),
            WorldObject("bystander", {"hit": False}),
        ],
        **kwargs,
    )


def test_undeclared_read_diverges_replicas_without_the_sanitizer():
    # Two replicas agree on RS(a) = {avatar} but differ on 'wind'.
    east, west = _replica(1), _replica(2)
    result_east = LyingReadAction(ActionId(0, 0), "avatar").apply(east)
    result_west = LyingReadAction(ActionId(0, 0), "avatar").apply(west)
    # Nothing raised — and the replicas have now silently diverged.
    assert result_east != result_west
    assert east.get("avatar") != west.get("avatar")


def test_sanitizer_catches_the_undeclared_read():
    store = _replica(1, SanitizedStore)
    with pytest.raises(RWSetViolation) as excinfo:
        LyingReadAction(ActionId(0, 0), "avatar").apply(store)
    violation = excinfo.value.violation
    assert violation.kind == "read"
    assert violation.oid == "wind"
    assert violation.declared == frozenset({"avatar"})
    assert "LyingReadAction" in violation.render()
    # The store was not corrupted before the raise.
    assert store.get("avatar").get("pos") == 0


def test_sanitizer_catches_the_undeclared_write():
    store = _replica(1, SanitizedStore)
    with pytest.raises(RWSetViolation) as excinfo:
        LyingWriteAction(ActionId(0, 0), "avatar").apply(store)
    assert excinfo.value.violation.kind == "write"
    assert excinfo.value.violation.oid == "bystander"


def test_sneaky_action_escapes_are_all_caught():
    # The three undeclared reads raise on a raise-mode sanitized store;
    # the undeclared write is caught by Action._write_back on any store.
    for escape, oid in (
        ("attribute", "bystander"), ("literal", "wind"), ("whole store", None)
    ):
        action = SneakyAction(ActionId(0, 0), "avatar", "bystander", escape)
        with pytest.raises(RWSetViolation) as excinfo:
            action.apply(_replica(1, SanitizedStore))
        violation = excinfo.value.violation
        assert (violation.kind, violation.oid) == ("read", oid), escape
        assert violation.action_type == "SneakyAction"
    store = _replica(1, SanitizedStore)
    action = SneakyAction(ActionId(0, 0), "avatar", "bystander", "write")
    with pytest.raises(ProtocolError, match="wrote undeclared objects") as excinfo:
        action.apply(store)
    assert not isinstance(excinfo.value, RWSetViolation)
    assert store.recorder.violations == []


@pytest.mark.parametrize(
    "enumerate_store",
    [
        lambda store: [oid for oid in store],
        len,
        lambda store: [obj for obj in store.objects()],
        lambda store: store.ids(),
    ],
    ids=["iter", "len", "objects", "ids"],
)
def test_enumerating_the_store_is_an_undeclared_read(enumerate_store):
    # Which ids a replica holds is state outside every RS(a), so even an
    # action that declares each object reads undeclared state this way.
    # The violation takes the recorder's path: report mode and the
    # interception hook see it.
    hooked = []
    recorder = SanitizerRecorder(
        mode="report", on_violation=lambda v: hooked.append(v) or False
    )
    store = _replica(1, SanitizedStore, recorder=recorder)
    EnumeratingAction(enumerate_store).apply(store)
    assert [(v.kind, v.oid) for v in recorder.violations] == [("read", None)]
    assert hooked == recorder.violations
    assert "read of the whole store outside declared RS" in hooked[0].render()
    # Outside an apply, enumeration stays unchecked.
    enumerate_store(store)
    assert len(recorder.violations) == 1


def test_report_mode_collects_and_lets_the_run_continue():
    recorder = SanitizerRecorder(mode="report")
    store = _replica(1, SanitizedStore, recorder=recorder, label="c0")
    LyingReadAction(ActionId(0, 0), "avatar").apply(store)
    LyingWriteAction(ActionId(0, 1), "avatar").apply(store)
    assert [v.kind for v in recorder.violations] == ["read", "write"]
    assert all(v.store == "c0" for v in recorder.violations)
    # The lying write went through in report mode.
    assert store.get("bystander").get("hit") is True


def test_honest_apply_is_clean_but_checked():
    class HonestAction(Action):
        def __init__(self):
            super().__init__(
                ActionId(0, 0),
                reads=frozenset({"avatar"}),
                writes=frozenset({"avatar"}),
            )

        def compute(self, store):
            return {"avatar": {"pos": store.get("avatar").get("pos") + 1}}

    recorder = SanitizerRecorder(mode="raise")
    store = _replica(1, SanitizedStore, recorder=recorder)
    HonestAction().apply(store)
    assert recorder.violations == []
    assert recorder.scopes_entered == 1
    assert recorder.reads_checked > 0
    assert store.get("avatar").get("pos") == 1


def test_accesses_outside_an_apply_are_unchecked():
    # Reconciliation/seeding legitimately touch arbitrary objects.
    store = _replica(1, SanitizedStore)
    assert store.get("wind").get("direction") == 1
    store.merge({"bystander": {"hit": True}})
    assert store.recorder.violations == []


def test_snapshot_stays_sanitized_and_shares_the_recorder():
    store = _replica(1, SanitizedStore)
    clone = store.snapshot()
    assert isinstance(clone, SanitizedStore)
    assert clone.recorder is store.recorder
    with pytest.raises(RWSetViolation):
        LyingReadAction(ActionId(0, 0), "avatar").apply(clone)


def test_optimistic_reads_of_objects_the_client_writes_are_checked():
    # ζ_CO keeps its own copy of 'wind' while the first action is
    # pending; the second action's undeclared read of it must still be
    # recorded, as a read on the client's store.
    sim = Simulator()
    network = Network(sim, rtt_ms=100.0)
    network.register(SERVER_ID, lambda src, message: None)
    recorder = SanitizerRecorder(mode="report")
    stable = _replica(1, SanitizedStore, recorder=recorder, label="c0")
    client = ProtocolClient(sim, network, Host(sim, 0), 0, stable)
    # An honest write of 'wind': the object it peeks at is its target.
    client.submit(LyingReadAction(ActionId(0, 0), "wind", peek="wind"))
    assert recorder.violations == []
    client.submit(LyingReadAction(ActionId(0, 1), "avatar"))
    assert [(v.kind, v.oid, v.store) for v in recorder.violations] == [
        ("read", "wind", "c0")
    ]
    assert client.optimistic.get("avatar").get("pos") == 1


def test_wrap_store_is_a_view_not_a_copy():
    plain = _replica(1)
    wrapped = wrap_store(plain, SanitizerRecorder(mode="report"), label="c1")
    wrapped.merge({"avatar": {"pos": 9}})
    assert plain.get("avatar").get("pos") == 9


def test_plain_store_has_no_scope_hook():
    # The zero-overhead contract: unsanitized stores expose no scope at
    # all, so Action.apply takes the unchecked fast path.
    assert ObjectStore.action_scope is None
    assert _replica(1).action_scope is None


def test_undeclared_write_values_still_raise_protocol_error():
    # The pre-existing half of the check is unchanged: computing values
    # for an undeclared object raises even on a plain store.
    class OverreachingAction(Action):
        def __init__(self):
            super().__init__(
                ActionId(0, 0),
                reads=frozenset({"avatar", "wind"}),
                writes=frozenset({"avatar"}),
            )

        def compute(self, store):
            return {"wind": {"direction": 0}}

    with pytest.raises(ProtocolError):
        OverreachingAction().apply(_replica(1))


def test_engine_runs_under_the_sanitizer_and_actually_checks(small_world):
    # The conftest fixture sets the ambient mode, so an unset config
    # resolves to "raise" and every client replica gets wrapped.
    assert ambient_mode() == "raise"
    engine = SeveEngine(small_world, 4, SeveConfig(mode="seve"))
    assert engine.rwset_recorder is not None
    engine.start(stop_at=5_000)
    for client_id in (0, 1):
        client = engine.clients[client_id]
        move = small_world.plan_move(
            engine.planning_store(client_id),
            client_id,
            client.next_action_id(),
            cost_ms=1.0,
        )
        engine.submit(client_id, move)
    engine.sim.run(until=5_000)
    assert engine.rwset_recorder.scopes_entered > 0
    assert engine.rwset_recorder.reads_checked > 0
    assert engine.rwset_recorder.violations == []


def test_engine_report_mode_surfaces_a_lying_action(small_world):
    # Full seeding so the undeclared object exists in the replica: the
    # lie then goes through silently instead of tripping a missing-read
    # abort — precisely the case only the sanitizer can see.
    engine = SeveEngine(
        small_world,
        2,
        SeveConfig(
            mode="incomplete", rwset_sanitizer="report", seed_full_state=True
        ),
    )
    engine.start(stop_at=3_000)
    target = small_world.avatar_of(0)
    peeked = small_world.avatar_of(1)
    lying = LyingReadAction(
        engine.clients[0].next_action_id(), target, peek=peeked
    )
    engine.submit(0, lying)
    engine.sim.run(until=3_000)
    assert any(v.oid == peeked for v in engine.rwset_recorder.violations)
    assert all(v.kind == "read" for v in engine.rwset_recorder.violations)


def test_config_rejects_unknown_sanitizer_mode():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        SeveConfig(rwset_sanitizer="loud")
