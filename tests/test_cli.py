"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


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


@pytest.mark.parametrize(
    "flags, offender",
    [
        (["--shards", "1", "--elastic"], "elastic"),
        (["--crash-plan", "bogus"], "'bogus'"),
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
