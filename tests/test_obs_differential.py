"""Differential proof of the observability determinism contract: a run
with a full :class:`repro.obs.Observer` attached (metrics + trace +
profile) must be byte-identical, in every deterministic output, to the
same run unobserved (docs/observability.md).

Everything an experimenter reads off a run is compared: every
deterministic :class:`RunResult` field and the rendered measurement
report (as bytes).  The lossy variant repeats the comparison under
fault injection, where a stray RNG draw or scheduled event inside the
observer would shift every subsequent random number and show up
immediately.
"""

from __future__ import annotations

import pytest

from repro.harness.config import SimulationSettings
from repro.harness.runner import RunResult, run_simulation
from repro.metrics.report import Table
from repro.net.faults import FaultPlan
from repro.obs import Observer

SETTINGS = SimulationSettings(
    num_clients=10,
    num_walls=200,
    moves_per_client=8,
    world_width=300.0,
    world_height=300.0,
    spawn="cluster",
    spawn_extent=100.0,
    rtt_ms=150.0,
    bandwidth_bps=None,
    move_interval_ms=250.0,
    cost_model="fixed",
    move_cost_ms=1.0,
    eval_overhead_ms=0.1,
    seed=11,
)

LOSSY_SETTINGS = SETTINGS.with_(
    fault_plan=FaultPlan(
        loss_rate=0.08, jitter_ms=30.0, duplicate_rate=0.03, seed=5
    )
)


def _fingerprint(result: RunResult) -> dict:
    """Every deterministic (virtual-time) field of a RunResult."""
    return {
        "response": result.response,
        "total_traffic_kb": result.total_traffic_kb,
        "client_traffic_kb": result.client_traffic_kb,
        "server_traffic_kb": result.server_traffic_kb,
        "drop_percent": result.drop_percent,
        "avg_visible": result.avg_visible,
        "avg_move_cost_ms": result.avg_move_cost_ms,
        "virtual_ms": result.virtual_ms,
        "events": result.events,
        "moves_submitted": result.moves_submitted,
        "responses_observed": result.responses_observed,
        "total_cpu_ms": result.total_cpu_ms,
        "closure_cpu_ms": result.closure_cpu_ms,
        "messages_dropped": result.messages_dropped,
        "messages_duplicated": result.messages_duplicated,
        "retransmissions": result.retransmissions,
        "clients_evicted": result.clients_evicted,
        "consistent": (
            None if result.consistency is None else result.consistency.summary()
        ),
    }


def _report_bytes(result: RunResult) -> bytes:
    """The measurement report rendered to bytes (wall time excluded —
    it is the one legitimately nondeterministic field)."""
    table = Table(f"report — {result.architecture}", ("metric", "value"))
    for name, value in _fingerprint(result).items():
        table.add_row(name, value)
    return table.render().encode()


def _run_pair(architecture: str, settings: SimulationSettings):
    unobserved = run_simulation(architecture, settings)
    observer = Observer(trace=True, profile=True)
    observed = run_simulation(architecture, settings, obs=observer)
    return unobserved, observed, observer


@pytest.mark.parametrize("architecture", ["seve", "central", "seve-hybrid"])
def test_observed_run_is_byte_identical_to_unobserved(architecture):
    unobserved, observed, observer = _run_pair(architecture, SETTINGS)
    assert _fingerprint(unobserved) == _fingerprint(observed)
    assert _report_bytes(unobserved) == _report_bytes(observed)
    # Not vacuous: the observer really saw the run.
    assert observer.metrics.counter("sim.dispatched").value == observed.events
    assert len(observer.trace) > 0
    assert unobserved.moves_submitted > 0


def test_seve_profile_covers_the_hot_seams():
    _, observed, observer = _run_pair("seve", SETTINGS)
    assert observed.profile is not None
    assert {
        "sim.dispatch",
        "host.service",
        "net.transmit",
        "server.push.scan",
        "server.push.closure",
        "server.push.build",
        "server.validate",
        "client.apply",
    } <= set(observed.profile)
    # sim_ms comes from the run's own charges, not from observation.
    assert observed.profile["client.apply"]["sim_ms"] > 0
    assert observer.profile.as_dict() == observed.profile


@pytest.mark.slow
@pytest.mark.faults
def test_observed_lossy_run_is_byte_identical_and_sees_arq():
    unobserved, observed, observer = _run_pair("seve", LOSSY_SETTINGS)
    assert _fingerprint(unobserved) == _fingerprint(observed)
    assert _report_bytes(unobserved) == _report_bytes(observed)
    # The degraded network actually exercised the recovery machinery,
    # and the observer saw exactly the retransmissions the meter counted.
    assert observed.retransmissions > 0
    assert (
        observer.metrics.counter("net.arq.retransmits").value
        == observed.retransmissions
    )
    assert observed.profile.get("net.arq.retransmit", {}).get("count", 0) > 0
