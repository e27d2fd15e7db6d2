"""``--scale smoke`` end to end: schema, gate, and agreement with the CLI."""

import json
import os
import re
import subprocess
import sys

import pytest

from conftest import PERF, ROOT

ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(*args):
    done = subprocess.run(
        [sys.executable, os.path.join(PERF, "run.py"), "--scale", "smoke",
         "--seconds", "0", *args],
        capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_single_run_matches_benchmark_json(workload, trace):
    result = run_benchmark("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert values["trace.sum_error_pct"] < 1.0
        assert values["core.messages.pickle_fallbacks"] == 0
        sharded = workload != "crowd_k1" and workload != "sprawl_k1"
        assert (values["core.sharded.spans_forwarded"] > 0) == sharded
        assert (values["core.messages.frames"] > 0) == (workload == "sprawl_k4_par")


def test_crowd_matches_the_real_cli():
    """The benchmark's crowd_k1 is `python -m repro run seve` with the
    same flags: same moves, responses and mean response time."""
    import workloads

    fields = workloads.settings_fields("crowd_k1", "smoke")
    seed = workloads.subseed(3, 0)
    cli = subprocess.run(
        [sys.executable, "-m", "repro", "run", "seve",
         "--clients", str(fields["num_clients"]), "--walls", str(fields["num_walls"]),
         "--moves", str(fields["moves_per_client"]), "--seed", str(seed)],
        capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=170,
    )
    assert cli.returncode == 0, cli.stderr
    record = subprocess.run(
        [sys.executable, os.path.join(PERF, "child.py"), "--mode", "timed",
         "--workload", "crowd_k1", "--sim-seed", str(seed), "--scale", "smoke"],
        capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=170,
    )
    assert record.returncode == 0, record.stderr
    sim = json.loads(record.stdout.splitlines()[-1])["sim"]

    def printed(label):
        match = re.search(rf"^\s*{label}\s+(\S+)", cli.stdout, re.MULTILINE)
        assert match, f"{label!r} not in CLI output:\n{cli.stdout}"
        return match.group(1)

    assert int(printed("moves submitted")) == sim["ops"]
    assert int(printed("stable responses")) == sim["responses"]
    assert float(printed(r"mean response \(ms\)")) == pytest.approx(
        sim["sim_response_ms_mean"], abs=0.05
    )


def test_suite_report_and_compare(tmp_path):
    out = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, os.path.join(PERF, "run.py"), "--scale", "smoke",
         "--seconds", "0", "--reps", "2", "--workload", "sprawl_k4", "--out", str(out)],
        capture_output=True, text=True, env=ENV, cwd=ROOT, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    assert "correctness gate: passed" in done.stdout
    report = json.loads(out.read_text())
    entry = report["workloads"]["sprawl_k4"]
    assert entry["failed_ops"] == 0 and entry["ops"] > 0
    assert set(entry["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert entry["end_to_end"]["wall_s"]["n"] == 2
    compared = subprocess.run(
        [sys.executable, os.path.join(PERF, "compare.py"), str(out), str(out), "--exact"],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert compared.returncode == 0, compared.stdout
    assert "no regression" in compared.stdout
