"""Smoke tests: the example scripts run to completion, and the inline
doctests in the utility modules hold."""

from __future__ import annotations

import doctest
import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, argv=()):
    old_argv = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_arrow_of_time_example(capsys):
    run_example("arrow_of_time.py")
    out = capsys.readouterr().out
    assert "Is archer A alive?" in out
    assert "DEAD" in out   # the RING anomaly showed
    assert "alive" in out  # and SEVE's consistent outcome


def test_scrying_spell_example(capsys):
    run_example("scrying_spell.py")
    out = capsys.readouterr().out
    assert "Crowd health" in out
    assert "0 violations" in out       # SEVE consistent
    assert "DIVERGED" in out           # RING not


def test_dining_philosophers_example(capsys):
    run_example("dining_philosophers.py", argv=["10"])
    out = capsys.readouterr().out
    assert "Dining philosophers" in out
    assert "unbounded" in out


def test_siege_example(capsys):
    run_example("siege.py")
    out = capsys.readouterr().out
    assert "walls demolished" in out
    assert "0 violations" in out


def test_quickstart_example(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "SEVE vs Central" in out
    assert "yes" in out  # everything consistent


@pytest.mark.parametrize(
    "module_name",
    ["repro.types", "repro.core.interest"],
)
def test_doctests(module_name):
    import importlib

    module = importlib.import_module(module_name)
    results = doctest.testmod(module)
    assert results.failed == 0
    assert results.attempted > 0
