"""Tests for the command-line interface."""

from __future__ import annotations

import dataclasses
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import EXPERIMENTS, build_parser, main, run_flags, settings_from_args
from repro.harness.config import SimulationSettings


def off_default(knob: dataclasses.Field, salt: int):
    """A legal value of ``knob`` that is neither its Table I nor its CLI
    default, read off the declaration; distinct ``salt`` gives distinct
    numbers, so two flags wired to each other's field cannot pass."""
    spec = knob.metadata
    defaults = (knob.default, spec.get("cli", knob.default))
    if "choices" in spec:
        return next(c for c in spec["choices"] if c is not None and c not in defaults)
    if knob.type == "bool":
        return True
    if knob.type == "Optional[str]":
        return f"out{salt}.json"
    step = salt + (1 if knob.type == "int" else 0.5)
    return max(value for value in (*defaults, 0) if value is not None) + step


def _settings_of(*argv: str) -> SimulationSettings:
    return settings_from_args(build_parser().parse_args(["run", "seve", *argv]))


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "seve" in out
    assert "figure6" in out
    assert "locking" in out


def test_run_command_small(capsys):
    code = main([
        "run", "seve",
        "--clients", "4", "--walls", "100", "--moves", "5",
        "--seed", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "mean response (ms)" in out
    assert "consistency" in out


def test_run_command_skips_consistency(capsys):
    code = main([
        "run", "central",
        "--clients", "3", "--walls", "50", "--moves", "4",
        "--no-consistency-check",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "consistency" not in out


def test_run_rejects_unknown_architecture():
    with pytest.raises(SystemExit):
        main(["run", "quantum"])


def test_experiment_table1(capsys):
    assert main(["experiment", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "238 ms" in out


def test_experiment_names_all_wired():
    parser = build_parser()
    for name in EXPERIMENTS:
        args = parser.parse_args(["experiment", name])
        assert args.name == name


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_flags_reach_settings(capsys):
    code = main([
        "run", "incomplete",
        "--clients", "2", "--walls", "0", "--moves", "3",
        "--rtt-ms", "50", "--move-cost-ms", "0.5",
        "--no-consistency-check",
    ])
    out = capsys.readouterr().out
    assert code == 0
    # RTT 50ms reactive: mean response well under the default 238ms RTT.
    mean_line = next(line for line in out.splitlines() if "mean response" in line)
    value = float(mean_line.split()[-1])
    assert value < 100.0

    # ... and so does every other one: each scalar field has exactly one
    # flag, a value given through it arrives in that field, and omitting
    # it yields the declared CLI default.
    flags = run_flags()
    scalars = [
        knob.name
        for knob in dataclasses.fields(SimulationSettings)
        if knob.name not in ("fault_plan", "adversary")
    ]
    assert [knob.name for knob in flags.values()] == scalars
    given = {
        flag: off_default(knob, salt)
        for salt, (flag, knob) in enumerate(flags.items())
    }
    argv = [
        word
        for flag, value in given.items()
        for word in ([flag] if value is True else [flag, str(value)])
    ]
    settings, omitted = _settings_of(*argv), _settings_of()
    for flag, knob in flags.items():
        assert getattr(settings, knob.name) == given[flag], flag
        assert getattr(omitted, knob.name) == knob.metadata.get(
            "cli", knob.default
        ), flag


def test_ledger_workloads_are_command_lines():
    """Each ``benchmarks/perf`` workload's field dict, spelled as flags,
    parses to the settings the benchmark builds from the dict — the
    dicts name ``--clients`` / ``--walls`` / ``--moves``, whose CLI
    defaults are smaller than Table I's on purpose, and every other CLI
    default *is* Table I's, up to ``rwset_sanitizer`` (``off`` from the
    CLI; ``None`` = the process-wide ambient mode from Python)."""
    path = pathlib.Path(__file__).parent.parent / "benchmarks/perf/workloads.py"
    spec = importlib.util.spec_from_file_location("perf_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    flag_of = {knob.name: flag for flag, knob in run_flags().items()}
    parsed = {}
    for name in ("crowd_k1", "sprawl_k1", "sprawl_k4", "sprawl_k4_par"):
        fields = dict(workloads.settings_fields(name), seed=workloads.subseed(1, 0))
        parsed[name] = _settings_of(
            *(word for key, value in fields.items() for word in (flag_of[key], str(value)))
        )
        assert parsed[name] == SimulationSettings(**fields, rwset_sanitizer="off"), name
    # Sub-seed 0 of ``sprawl_k1`` at benchmark seed 1, as one would type it.
    assert parsed["sprawl_k1"] == _settings_of(
        *"--spawn uniform --world-width 4000 --clients 1024 --walls 10000 "
        "--moves 4 --seed 1000".split()
    )


@pytest.mark.parametrize(
    "flags, offender",
    [
        (["--shards", "1", "--elastic"], "elastic"),
        (["--crash-plan", "bogus"], "'bogus'"),
        # Out-of-range knobs, one per declared check: each used to reach
        # an engine and die there as a SimulationError / NetworkError /
        # ProtocolError traceback (--visibility -1 blamed "threshold").
        (["--rtt-ms", "0"], "rtt_ms"),
        (["--rtt-ms", "-5"], "rtt_ms"),
        (["--move-cost-ms", "-1"], "move_cost_ms"),
        (["--eval-overhead-ms", "-1"], "eval_overhead_ms"),
        (["--effect-range", "-1"], "move_effect_range"),
        (["--visibility", "-1"], "visibility"),
        (["--spawn-extent", "-1"], "spawn_extent"),
        (["--drain-ms", "-1"], "drain_ms"),
        (["--clients", "-1"], "num_clients"),
        (["--bandwidth-bps", "0"], "bandwidth_bps"),
        (["--world-width", "0"], "world_width"),
        (["--world-height", "-3"], "world_height"),
    ],
)
def test_impossible_run_flags_end_in_one_error_line_not_a_traceback(
    flags, offender, capsys
):
    code = main(["run", "seve", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("repro: error: ")
    assert captured.err.count("\n") == 1
    assert offender in captured.err


#: Every float-valued ``run`` flag -> the name its error line must carry:
#: the declared knobs, plus the FaultPlan floats behind hand-written flags.
FLOAT_FLAGS = {
    **{
        flag: knob.name
        for flag, knob in run_flags().items()
        if knob.type in ("float", "Optional[float]")
    },
    "--loss-rate": "loss_rate",
    "--jitter-ms": "jitter_ms",
    "--dup-rate": "duplicate_rate",
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", sorted(FLOAT_FLAGS))
def test_non_finite_float_flags_end_in_one_error_line_not_a_hang(flag, value):
    # ``--move-interval-ms inf`` and ``nan`` used to never return;
    # ``--rtt-ms nan``/``inf``, ``--move-cost-ms nan``, ``--bandwidth-bps
    # nan``, ``--drain-ms nan``, ``--visibility nan`` and ``--jitter-ms
    # nan`` used to exit 0 with a report of a run that never happened.
    # A subprocess with a timeout, so a hang fails instead of stalling.
    root = pathlib.Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "repro", "run", "seve", "--clients", "4",
         "--walls", "0", "--moves", "2", f"{flag}={value}"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=20,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("repro: error: ")
    assert done.stderr.count("\n") == 1
    assert FLOAT_FLAGS[flag] in done.stderr
