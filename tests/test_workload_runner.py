"""Integration tests for the workload generator, the run driver, and the
settings object."""

from __future__ import annotations

import dataclasses

import pytest

from repro.adversary import AdversaryPlan
from repro.errors import ConfigurationError
from repro.harness.architectures import ARCHITECTURES, build_engine, build_world
from repro.harness.config import SimulationSettings
from repro.harness.runner import run_simulation
from repro.harness.workload import MoveWorkload
from repro.net.faults import FaultPlan
from tests.test_cli import off_default


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------
def test_table1_defaults():
    settings = SimulationSettings()
    assert settings.world_width == 1000.0
    assert settings.num_walls == 100_000
    assert settings.rtt_ms == 238.0
    assert settings.bandwidth_bps == 100_000.0
    assert settings.moves_per_client == 100
    assert settings.move_interval_ms == 300.0
    assert settings.move_effect_range == 10.0
    assert settings.visibility == 30.0
    assert settings.effective_threshold == 45.0  # 1.5 x visibility
    assert settings.move_cost_ms == 7.44


def test_threshold_override():
    assert SimulationSettings(threshold=7.0).effective_threshold == 7.0


def test_workload_duration():
    settings = SimulationSettings(moves_per_client=10, move_interval_ms=100.0)
    assert settings.workload_duration_ms == 1000.0


def test_with_helpers_return_new_objects():
    base = SimulationSettings()
    modified = base.with_clients(3).with_(visibility=9.0)
    assert modified.num_clients == 3
    assert modified.visibility == 9.0
    assert base.num_clients == 64


def test_invalid_settings_rejected():
    with pytest.raises(ConfigurationError):
        SimulationSettings(cost_model="quantum")
    with pytest.raises(ConfigurationError):
        SimulationSettings(moves_per_client=-1)
    with pytest.raises(ConfigurationError):
        SimulationSettings(move_interval_ms=0.0)


def test_manhattan_config_mirror():
    settings = SimulationSettings(visibility=12.0, move_effect_range=3.0)
    config = settings.manhattan_config()
    assert config.visibility == 12.0
    assert config.effect_range == 3.0
    assert config.move_duration_s == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# Architecture factory
# ---------------------------------------------------------------------------
def test_every_architecture_builds(small_settings):
    world = build_world(small_settings)
    for architecture in ARCHITECTURES:
        engine = build_engine(architecture, small_settings, world)
        assert len(engine.clients) == small_settings.num_clients


def test_unknown_architecture_rejected(small_settings):
    with pytest.raises(ConfigurationError):
        build_engine("quantum", small_settings)


@pytest.mark.parametrize(
    "architecture, changes",
    [
        ("seve", dict(shards=1, elastic=False)),
        ("seve", dict(shards=3)),
        ("central", dict(shards=1, elastic=False, rwset_sanitizer=None, adversary=None)),
        ("zoned", dict(shards=1, elastic=False, rwset_sanitizer=None, adversary=None)),
        ("ring", dict(shards=1, elastic=False, rwset_sanitizer=None, adversary=None)),
    ],
)
def test_built_engine_carries_every_mapped_knob(architecture, changes):
    """With every knob off its default, each value a declaration maps
    ``to=`` a layer is found on that layer's object in the built engine
    (a forgotten or misspelled mapping shows up as the layer's own
    default, or as an ``AttributeError``)."""
    knobs = dataclasses.fields(SimulationSettings)
    values = {
        knob.name: off_default(knob, salt)
        for salt, knob in enumerate(knobs)
        if knob.name not in ("fault_plan", "adversary")
    }
    values.update(
        fault_plan=FaultPlan(loss_rate=0.01, seed=3),
        adversary=AdversaryPlan(assignments=(("forge", (1,)),), seed=2),
        num_clients=3, num_walls=7, backend="inproc", trace_out=None, metrics_out=None,
        omega=0.25,  # the First Bound predicate wants it inside (0, 1)
    )
    settings = SimulationSettings(**values).with_(**changes)
    engine = build_engine(architecture, settings)
    layers = {architecture: engine, "testbed": engine.config, "manhattan": engine.world.config}
    if architecture == "seve":
        layers["seve"] = engine.config
    if settings.shards > 1:
        layers.update(sharding=engine.sharding, elastic=engine.sharding.elastic)
    checked = set()
    for knob in knobs:
        for target in knob.metadata.get("to", "").split():
            layer, _, renamed = target.partition(".")
            if layer in layers:
                received = getattr(layers[layer], renamed or knob.name)
                assert received == getattr(settings, knob.name), target
                checked.add(layer)
    assert checked == set(layers)
    # The other direction, for a forgotten mapping: a knob that shares
    # its name with a field of a layer's config is mapped to it, unless
    # the builder computes that field from several knobs.
    computed = {"threshold", "fault_tolerant", "elastic"}
    for layer in checked - {architecture}:
        names = {name for name in layers if layers[name] is layers[layer]}
        for received in dataclasses.fields(layers[layer]):
            if received.name in values and received.name not in computed:
                mapped = SimulationSettings.__dataclass_fields__[received.name].metadata.get("to", "")
                assert names & set(mapped.split()), (layer, received.name)


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------
def test_workload_submits_exact_quota(small_settings):
    world = build_world(small_settings)
    engine = build_engine("seve", small_settings, world)
    workload = MoveWorkload(engine, world, small_settings)
    engine.start()
    workload.install()
    engine.run(until=small_settings.workload_duration_ms + 1000)
    assert workload.finished
    expected = small_settings.num_clients * small_settings.moves_per_client
    assert workload.stats.moves_submitted == expected


def test_workload_cost_model_walls(small_settings):
    settings = small_settings.with_(cost_model="walls", num_walls=400)
    world = build_world(settings)
    engine = build_engine("seve", settings, world)
    workload = MoveWorkload(engine, world, settings)
    engine.start()
    workload.install()
    engine.run(until=settings.workload_duration_ms + 1000)
    costs = workload.stats.costs
    assert costs and all(cost >= 0 for cost in costs)
    # Costs vary with local wall density.
    assert len(set(round(c, 4) for c in costs)) > 1


def test_workload_is_deterministic(small_settings):
    def run_once():
        world = build_world(small_settings)
        engine = build_engine("seve", small_settings, world)
        workload = MoveWorkload(engine, world, small_settings)
        engine.start()
        workload.install()
        engine.run(until=small_settings.workload_duration_ms + 2000)
        engine.run_to_quiescence()
        return (
            engine.response_times.summary().mean,
            engine.network.meter.total_bytes,
        )

    assert run_once() == run_once()


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------
def test_run_simulation_end_to_end(small_settings):
    result = run_simulation("seve", small_settings)
    expected = small_settings.num_clients * small_settings.moves_per_client
    assert result.moves_submitted == expected
    assert result.responses_observed + result.settings.num_clients * 0 <= expected
    assert result.responses_observed > 0
    assert result.total_traffic_kb > 0
    assert result.client_traffic_kb > 0
    assert result.consistency is not None and result.consistency.consistent
    assert result.virtual_ms > small_settings.workload_duration_ms
    assert result.events > 0
    assert result.mean_response_ms == result.response.mean


@pytest.mark.parametrize("architecture", ["central", "broadcast", "ring", "seve-basic"])
def test_run_simulation_baselines(small_settings, architecture):
    result = run_simulation(architecture, small_settings)
    assert result.responses_observed > 0
    if architecture in ("central", "broadcast", "seve-basic"):
        assert result.consistency.consistent


def test_run_simulation_skips_consistency_when_asked(small_settings):
    result = run_simulation("seve", small_settings, check_consistency=False)
    assert result.consistency is None


def test_run_simulation_reuses_world(small_settings):
    world = build_world(small_settings)
    a = run_simulation("seve", small_settings, world=world, check_consistency=False)
    b = run_simulation("seve", small_settings, world=world, check_consistency=False)
    assert a.mean_response_ms == b.mean_response_ms
