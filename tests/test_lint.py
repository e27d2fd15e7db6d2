"""Self-test of the AST determinism linter (docs/static_analysis.md).

Three contracts: (1) every rule in the catalogue fires on its known-bad
corpus snippet — and *only* the expected rule fires, pinning the
false-positive behaviour too; (2) the shipped library is clean, which is
what lets scripts/test.sh fail CI on any new finding; (3) the CLI's
JSON mode and exit codes behave as documented.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.lint import RULES, lint_paths, lint_source

REPO = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "lint_corpus"

#: Corpus file -> exact rule histogram the linter must produce.
EXPECTED = {
    "wall_clock.py": {"wall-clock": 4},
    "unseeded_random.py": {"unseeded-random": 2},
    "module_random.py": {"module-random": 3},
    "set_iteration.py": {"set-iteration": 3},
    "id_ordering.py": {"id-ordering": 4},
    "dict_iteration.py": {"dict-iter-serialization": 1},
    "suppressed.py": {},
}


@pytest.mark.parametrize("filename", sorted(EXPECTED))
def test_corpus_snippet_yields_exactly_the_expected_findings(filename):
    findings = lint_paths([CORPUS / filename])
    histogram = Counter(finding.rule for finding in findings)
    assert dict(histogram) == EXPECTED[filename]


def test_corpus_covers_the_whole_rule_catalogue():
    covered = set().union(*(set(rules) for rules in EXPECTED.values()))
    assert covered == set(RULES)


def test_shipped_library_is_clean():
    findings = lint_paths(
        [REPO / "src" / "repro", REPO / "scripts", REPO / "examples"],
        root=REPO,
    )
    assert findings == [], "\n".join(f.render() for f in findings)


def test_findings_carry_file_line_provenance():
    findings = lint_paths([CORPUS / "wall_clock.py"], root=REPO)
    assert findings, "corpus snippet must produce findings"
    for finding in findings:
        assert finding.path == "tests/lint_corpus/wall_clock.py"
        assert finding.line > 0
        rendered = finding.render()
        assert rendered.startswith(f"{finding.path}:{finding.line}:")
        assert f"[{finding.rule}]" in rendered


def test_suppression_is_per_rule_not_blanket():
    source = (
        "import time\n"
        "def f():\n"
        "    return time.time(), sorted([], key=id)  # lint: allow(wall-clock)\n"
    )
    findings = lint_source(source)
    assert [f.rule for f in findings] == ["id-ordering"]


def test_set_typedness_tracks_reassignment():
    # A name loses set-typedness when rebound to a non-set.
    source = (
        "def f(extra):\n"
        "    items = {1, 2} | extra\n"
        "    items = sorted(items)\n"
        "    return [x for x in items]\n"
    )
    assert lint_source(source) == []


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / "lint.py"), *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )


def test_cli_exit_codes_and_json_document():
    dirty = _run_cli("--check", "determinism", "--json",
                     str(CORPUS / "module_random.py"))
    assert dirty.returncode == 1
    document = json.loads(dirty.stdout)
    assert document["checks"] == ["determinism"]
    assert document["count"] == 3
    assert {f["rule"] for f in document["findings"]} == {"module-random"}

    clean = _run_cli("--check", "determinism", "--json",
                     str(CORPUS / "suppressed.py"))
    assert clean.returncode == 0
    assert json.loads(clean.stdout)["count"] == 0

    missing = _run_cli("--check", "determinism", "no/such/path.py")
    assert missing.returncode == 2
