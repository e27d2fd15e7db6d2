"""Self-test of the protocol conformance analyzer
(docs/static_analysis.md).

Mirrors test_lint.py's contracts for the protocol checks: (1) the
known-bad corpus pair under tests/lint_corpus/protocol/ fires every
rule in the catalogue exactly once, pinned per-rule and per-site;
(2) the extracted flow graph matches the golden expected_graph.json
byte for byte, so the JSON format consumed by tooling cannot drift
silently; (3) the shipped tree is clean — every spec'd message has a
sender and a handler, which is what lets scripts/test.sh fail CI on
protocol drift (codec coverage and conservation accounting are not
rules: encoder, decoder and sizer are compiled from the spec, see
tests/test_codec.py, and a group's messages are counted at the servers'
one message seam, see tests/test_message_seam.py); (4) the CLI front end wires
the check up with the documented exit codes and the positional
``protocol`` shorthand.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from repro.analysis.protocol import PROTOCOL_RULES, analyze_paths, check_paths

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "tests" / "lint_corpus" / "protocol"
SCAN_ROOTS = [
    REPO / "src" / "repro" / "core",
    REPO / "src" / "repro" / "net",
    REPO / "src" / "repro" / "baselines",
]


def test_corpus_fires_every_rule_exactly_once():
    findings = check_paths([CORPUS], root=REPO)
    histogram = Counter(f.rule for f in findings)
    assert dict(histogram) == {rule: 1 for rule in PROTOCOL_RULES}


def test_corpus_findings_point_at_the_seeded_sites():
    findings = {f.rule: f for f in check_paths([CORPUS], root=REPO)}
    messages_py = "tests/lint_corpus/protocol/proto_messages.py"
    node_py = "tests/lint_corpus/protocol/proto_node.py"
    assert findings["protocol-orphan"].path == messages_py
    assert "Orphan" in findings["protocol-orphan"].message
    assert findings["protocol-unregistered"].path == messages_py
    assert "Rogue" in findings["protocol-unregistered"].message
    assert findings["protocol-dead-handler"].path == node_py
    assert "DeadEnd" in findings["protocol-dead-handler"].message


def test_dispatch_table_keys_are_handler_sites():
    """``Tabled`` and ``DeadEnd`` are handled only through the node's
    ``HANDLERS`` table: the first is therefore no orphan, the second's
    dead-handler finding sits on its table key."""
    model = analyze_paths([CORPUS], root=REPO)
    source = (CORPUS / "proto_node.py").read_text().splitlines()
    for name in ("Tabled", "DeadEnd"):
        (site,) = model.flows[name].handlers
        assert f'{name}: "on_' in source[site[1] - 1]
    (dead,) = [f for f in model.findings if f.rule == "protocol-dead-handler"]
    assert (dead.path, dead.line) == model.flows["DeadEnd"].handlers[0]
    assert not any("Tabled" in f.message for f in model.findings)


def test_corpus_flow_graph_matches_golden_file():
    model = analyze_paths([CORPUS], root=REPO)
    golden = json.loads((CORPUS / "expected_graph.json").read_text())
    assert model.graph_dict() == golden


def test_missing_registry_is_a_finding_not_a_pass(tmp_path):
    (tmp_path / "plain.py").write_text("class NotAProtocol:\n    pass\n")
    findings = check_paths([tmp_path])
    assert [f.rule for f in findings] == ["protocol-unregistered"]
    assert "no PROTOCOL_MESSAGES registry" in findings[0].message


def test_shipped_protocol_is_conformant():
    model = analyze_paths(SCAN_ROOTS, root=REPO)
    assert model.findings == [], "\n".join(
        f.render() for f in model.findings
    )
    assert model.definition_module == "src/repro/core/messages.py"
    flows = model.flows
    # The graph is the spec'd messages and nothing else (the module's
    # other classes -- CodecError, MessageCodec, Kind -- are not messages).
    from repro.core.messages import ENVELOPED_MESSAGES, PROTOCOL_MESSAGES

    assert sorted(flows) == sorted(c.__name__ for c in PROTOCOL_MESSAGES)
    assert [n for n, f in flows.items() if f.enveloped] == [
        c.__name__ for c in ENVELOPED_MESSAGES
    ]
    # Every message the engine relies on is present and fully wired.
    for name in ("SubmitAction", "ActionBatch", "CommitNotice", "LeaseGrant"):
        flow = flows[name]
        assert flow.senders, f"{name} has no constructor site"
        assert flow.handlers, f"{name} has no handler site"
    # The elastic handoff messages are conservation-tracked.
    assert flows["PartitionUpdate"].conservation == "elastic"
    assert flows["DrainDone"].conservation == "elastic"


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_cli_positional_shorthand_and_exit_codes():
    clean = _run_cli("protocol", "--root", str(REPO), "--json")
    assert clean.returncode == 0, clean.stderr
    document = json.loads(clean.stdout)
    assert document["checks"] == ["protocol"]
    assert document["count"] == 0
    assert set(document) == {"checks", "count", "findings"}

    dirty = _run_cli("protocol", "--root", str(REPO), "--json", str(CORPUS))
    assert dirty.returncode == 1
    document = json.loads(dirty.stdout)
    assert document["count"] == len(PROTOCOL_RULES)
    assert {f["rule"] for f in document["findings"]} == set(PROTOCOL_RULES)

    missing = _run_cli("protocol", "no/such/dir")
    assert missing.returncode == 2


def test_cli_all_includes_protocol():
    result = _run_cli("--check", "all", "--root", str(REPO), "--json")
    assert result.returncode == 0, result.stdout + result.stderr
    document = json.loads(result.stdout)
    assert document["checks"] == ["determinism", "rwset", "protocol"]
