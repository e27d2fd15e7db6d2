"""Self-test of the protocol's shape check (docs/static_analysis.md,
"Protocol shape").

``tests/test_message_seam.py`` finds every dispatch table of the
``repro`` package and ``protocol_findings`` runs three rules over them.
This module pins the checker itself: (1) a planted corpus, the real
tables with one breach of each rule seeded in, fires every rule exactly
once, at the seeded message; (2) every table entry is a handler site,
and a table is found by its attribute's name, whatever comes before
``HANDLERS``; (3) the tables are found, not listed, and finding none is
a finding, not a pass; (4) the shipped tree is conformant; (5) the CLI
offers no protocol check, since the suite runs this one.
"""

from __future__ import annotations

from collections import Counter

from repro.core.client import ProtocolClient
from repro.core.messages import (
    CONSERVATION_GROUPS,
    ENVELOPED_MESSAGES,
    PROTOCOL_MESSAGES,
    WIRE_SPECS,
    CommitNotice,
    DrainDone,
    PartitionUpdate,
)
from tests.test_lint import _run_module
from tests.test_message_seam import CALLED, SERVER_TABLES, TABLES, protocol_findings

PROTOCOL_RULES = ("protocol-orphan", "protocol-unregistered", "protocol-dead-handler")


class Stray:
    """A class with no wire spec."""


def planted_findings():
    """The real tables with ``CommitNotice`` dropped from the client's,
    a table keyed on ``Stray``, and the one call constructing
    ``ShardHello`` gone from the called names."""
    tables = {key: dict(table) for key, table in TABLES.items()}
    del tables[ProtocolClient, "HANDLERS"][CommitNotice]
    tables[Stray, "HANDLERS"] = {Stray: "on_stray"}
    return protocol_findings(tables, CALLED - {"ShardHello"})


def test_corpus_fires_every_rule_exactly_once():
    histogram = Counter(rule for rule, _ in planted_findings())
    assert dict(histogram) == {rule: 1 for rule in PROTOCOL_RULES}


def test_corpus_findings_point_at_the_seeded_sites():
    assert dict(planted_findings()) == {
        "protocol-orphan": "CommitNotice",
        "protocol-unregistered": "Stray",
        "protocol-dead-handler": "ShardHello",
    }


def test_dispatch_table_keys_are_handler_sites():
    """Each entry maps a spec'd message to a method of the class that
    holds the table.  The six messages that only a baseline's
    ``SERVER_HANDLERS`` or ``CLIENT_HANDLERS`` handles are no orphans;
    a check that read plain ``HANDLERS`` alone would report each."""
    for (owner, name), table in TABLES.items():
        for kind, method in table.items():
            site = f"{owner.__qualname__}.{name}[{kind.__name__}]"
            assert kind in WIRE_SPECS, site
            assert callable(getattr(owner, method, None)), site
    plain = {key: table for key, table in TABLES.items() if key[1] == "HANDLERS"}
    assert protocol_findings(plain, CALLED) == [
        ("protocol-orphan", name)
        for name in ("StateUpdate", "RelayedAction", "LockGrant", "Effect",
                     "Certify", "Decision")
    ]


def test_missing_registry_is_a_finding_not_a_pass():
    """Every receiver's table is found: the servers' and their units',
    the client's and each baseline's two (the zoned engine's are
    Central's; the chassis' tables are the base its subclasses extend).
    With no table found, every message that travels on its own is an
    orphan, so a discovery that missed them would fail, not pass."""
    assert len(TABLES) == 20
    assert sum(map(len, TABLES.values())) == 44
    assert TABLES[ProtocolClient, "HANDLERS"] is ProtocolClient.HANDLERS
    for table in SERVER_TABLES:
        assert any(found is table for found in TABLES.values())
    named = {f"{owner.__qualname__}.{name}" for owner, name in TABLES}
    for engine in ("Central", "Broadcast", "Ring", "Locking", "Timestamp"):
        for side in ("SERVER", "CLIENT"):
            key = f"{engine}Engine.{side}_HANDLERS"
            assert key in named
    assert protocol_findings({}, CALLED) == [
        ("protocol-orphan", message.__name__)
        for message in PROTOCOL_MESSAGES
        if message not in ENVELOPED_MESSAGES
    ]


def test_shipped_protocol_is_conformant():
    """No finding, the tables handle exactly the messages that travel on
    their own, and the ones the engine relies on are constructed and
    handled."""
    assert protocol_findings(TABLES, CALLED) == []
    handled = set().union(*TABLES.values())
    assert handled == set(PROTOCOL_MESSAGES) - set(ENVELOPED_MESSAGES)
    names = {kind.__name__ for kind in handled}
    for name in ("SubmitAction", "ActionBatch", "CommitNotice", "LeaseGrant"):
        assert name in names and name in CALLED, name
    assert {PartitionUpdate, DrainDone} <= set(CONSERVATION_GROUPS["elastic"])


def test_cli_positional_shorthand_and_exit_codes():
    """The suite checks the protocol's shape, so the CLI has no
    ``protocol`` check: ``--check protocol`` is refused, and a bare
    ``protocol`` reads as a path that does not exist."""
    result = _run_module("--check", "protocol")
    assert result.returncode == 2
    assert "invalid choice: 'protocol'" in result.stderr
    assert _run_module("protocol").returncode == 2


def test_cli_all_includes_protocol():
    """``all`` named the determinism and protocol checks.  With the
    protocol checked by the suite it would mean ``determinism`` alone,
    so it is no check name."""
    result = _run_module("--check", "all")
    assert result.returncode == 2
    assert "invalid choice: 'all'" in result.stderr
