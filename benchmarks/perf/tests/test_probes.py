"""Installing and removing the probes leaves the program untouched."""

import sys

from probes import Probes
from spans import SpanRecorder


def patched_attributes():
    """Every class or module attribute the probes may replace, with the
    object it currently holds."""
    probes = Probes(SpanRecorder()).install()
    owners = {(owner, attr) for owner, attr, _ in probes._undo}
    functions = [original for original, _ in probes._functions]
    probes.uninstall()
    state = {(owner, attr): vars(owner)[attr] for owner, attr in owners}
    for name, module in sys.modules.items():
        if name.startswith("repro") and module is not None:
            for attr, value in vars(module).items():
                if any(value is fn for fn in functions):
                    state[(module, attr)] = value
    return state


def test_uninstall_restores_every_patched_attribute():
    before = patched_attributes()
    assert len(before) > 30
    probes = Probes(SpanRecorder()).install()
    during = {key: vars(key[0])[key[1]] for key in before}
    assert all(during[key] is not before[key] for key in before)
    probes.uninstall()
    after = {key: vars(key[0])[key[1]] for key in before}
    assert all(after[key] is before[key] for key in before)


def test_probes_do_not_perturb_the_simulation():
    from repro.harness.config import SimulationSettings
    from repro.harness.runner import run_simulation

    import layers
    import workloads

    settings = SimulationSettings(seed=7, **workloads.settings_fields("sprawl_k4", "smoke"))
    plain = workloads.sim_record(run_simulation(workloads.ARCHITECTURE, settings))
    traced = layers.traced_call(settings)
    assert traced["sim"] == plain
    metrics = traced["per_layer"]
    assert metrics["trace.sum_error_pct"] < 1.0
    assert metrics["net.simulator.events"] == plain["events"]
    assert metrics["core.sharded.spans_forwarded"] > 0
    # The probes are gone again: a second plain run records nothing.
    again = workloads.sim_record(run_simulation(workloads.ARCHITECTURE, settings))
    assert again == plain
