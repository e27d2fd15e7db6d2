"""Static protocol conformance analyzer (docs/static_analysis.md).

The distributed protocol grown on top of SEVE — cross-shard span
forwarding, elastic epoch drains, gsn lease elections, crash/restart
incarnations — is a set of message dataclasses (``core/messages.py``)
wired to constructor sites (senders) and handler sites spread over many
modules.  A handler site is a key of a ``HANDLERS = {Message: "method",
...}`` dispatch table (the servers and the gsn lease) or an
``isinstance`` branch of a dispatcher-named function (the clients, the
basic server, the baselines, the ARQ layer).  Example-based tests
exercise a handful of schedules; this module checks the *shape* of the
protocol mechanically, by AST extraction, against what the protocol
module declares: one ``@wire_message(...)`` spec per message class —
together the closed set of message types.  ``enveloped=True`` marks a
message that only travels nested inside another message's fields (no
handler of its own); ``group="..."`` enrols it in a conservation group.

The wire size, the binary codec and the runtime registries are compiled
from the same specs, and a conservation group is counted where its
messages cross the servers' one message seam, so codec coverage and
conservation accounting hold by construction and are not rules here.
Specs are parsed *statically* — the analyzer never imports the code
under analysis, so it works on corpora and broken trees alike.

Checks
------
``protocol-orphan``
    A non-enveloped message with no handler site anywhere in the
    scanned modules: constructed (or constructible) but
    never handled — exactly the shape of the PR 9 deferred-push replica
    gap, where a reply was parked and dropped.
``protocol-dead-handler``
    A handler site for a message no scanned module constructs.
``protocol-unregistered``
    A public class of the protocol module that a dispatcher handles but
    that carries no spec — it can be neither sized nor encoded (private
    ``_Names`` are exempt — the ARQ layer is beneath the protocol).

Findings reuse the lint :class:`~repro.analysis.lint.Finding` shape, so
``# lint: allow(...)`` suppressions apply unchanged.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import (
    Finding,
    _suppressions,
    display_path,
    iter_python_files,
)

#: Rule name -> one-line description (merged into ``--list-rules``).
PROTOCOL_RULES: Dict[str, str] = {
    "protocol-orphan": (
        "message with no dispatch handler in any scanned module"
    ),
    "protocol-dead-handler": (
        "handler site for a message nothing constructs"
    ),
    "protocol-unregistered": (
        "dispatched protocol-module class without a @wire_message spec"
    ),
}

#: Function names that mark a message dispatcher.
_HANDLER_NAME_RE = re.compile(r"(^|_)(on_|dispatch|deliver|handle)")

#: Name a dispatch table is assigned to.
_TABLE_NAME = "HANDLERS"

#: Name of the class decorator that declares a message's spec.
_SPEC_DECORATOR = "wire_message"

Site = Tuple[str, int]  # (display path, line)


@dataclass
class MessageFlow:
    """Everything the analyzer learned about one spec'd message type."""

    name: str
    defined: Site
    enveloped: bool = False
    conservation: Optional[str] = None
    senders: List[Site] = field(default_factory=list)
    handlers: List[Site] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON form; key order and list order are deterministic."""
        return {
            "name": self.name,
            "defined": _site_str(self.defined),
            "enveloped": self.enveloped,
            "conservation": self.conservation,
            "senders": [_site_str(s) for s in sorted(self.senders)],
            "handlers": [_site_str(s) for s in sorted(self.handlers)],
        }


def _site_str(site: Site) -> str:
    return f"{site[0]}:{site[1]}"


@dataclass
class ProtocolModel:
    """The extracted flow graph plus the findings derived from it."""

    definition_module: Optional[str]
    flows: Dict[str, MessageFlow]
    findings: List[Finding]
    files_scanned: int

    def graph_dict(self) -> dict:
        """Stable JSON form of the flow graph (the ``--json`` payload)."""
        return {
            "definition_module": self.definition_module,
            "files_scanned": self.files_scanned,
            "messages": [
                self.flows[name].to_dict() for name in sorted(self.flows)
            ],
        }


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def _isinstance_names(test: ast.AST) -> List[ast.AST]:
    """Class-name nodes of an ``isinstance(x, T)`` / ``not isinstance``
    / ``type(x) is T`` test; empty list when the test is neither."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _isinstance_names(test.operand)
    if isinstance(test, ast.BoolOp):
        names: List[ast.AST] = []
        for value in test.values:
            names.extend(_isinstance_names(value))
        return names
    if (
        isinstance(test, ast.Call)
        and isinstance(test.func, ast.Name)
        and test.func.id == "isinstance"
        and len(test.args) == 2
    ):
        target = test.args[1]
        if isinstance(target, ast.Tuple):
            return list(target.elts)
        return [target]
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.Eq))
        and isinstance(test.left, ast.Call)
        and isinstance(test.left.func, ast.Name)
        and test.left.func.id == "type"
        and len(test.left.args) == 1
    ):
        return [test.comparators[0]]
    return []


def _name_ids(nodes: Iterable[ast.AST]) -> List[Tuple[str, int]]:
    """(identifier, line) for every plain-``Name`` node in ``nodes``."""
    out = []
    for node in nodes:
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
    return out


# ----------------------------------------------------------------------
# Protocol-definition module (message specs)
# ----------------------------------------------------------------------
@dataclass
class _Definition:
    path: str
    #: spec'd message name -> (enveloped, conservation group or None)
    specs: Dict[str, Tuple[bool, Optional[str]]] = field(default_factory=dict)
    class_lines: Dict[str, int] = field(default_factory=dict)


def _spec_keywords(node: ast.ClassDef) -> Optional[Dict[str, object]]:
    """Literal keyword arguments of the class's ``@wire_message(...)``
    decorator; ``None`` when the class carries no spec."""
    for decorator in node.decorator_list:
        if (
            isinstance(decorator, ast.Call)
            and isinstance(decorator.func, ast.Name)
            and decorator.func.id == _SPEC_DECORATOR
        ):
            return {
                keyword.arg: keyword.value.value
                for keyword in decorator.keywords
                if isinstance(keyword.value, ast.Constant)
            }
    return None


def _extract_definition(path: str, tree: ast.Module) -> Optional[_Definition]:
    """Parse the specs out of a module; ``None`` when the module does
    not assign ``PROTOCOL_MESSAGES`` (i.e. is not the protocol
    definition module)."""
    definition = _Definition(path)
    found_registry = False
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            definition.class_lines[node.name] = node.lineno
            keywords = _spec_keywords(node)
            if keywords is not None:
                definition.specs[node.name] = (
                    keywords.get("enveloped") is True,
                    keywords.get("group"),
                )
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "PROTOCOL_MESSAGES"
            for target in node.targets
        ):
            found_registry = True
    return definition if found_registry else None


# ----------------------------------------------------------------------
# Per-module extraction (senders, handlers)
# ----------------------------------------------------------------------
@dataclass
class _ModuleScan:
    path: str
    #: message name -> lines of its handler sites / constructor sites
    handler_sites: Dict[str, List[int]] = field(default_factory=dict)
    sender_sites: Dict[str, List[int]] = field(default_factory=dict)
    suppressed: Dict[int, Set[str]] = field(default_factory=dict)


def _scan_module(
    path: str, source: str, tree: ast.Module, known: Set[str]
) -> _ModuleScan:
    scan = _ModuleScan(path, suppressed=_suppressions(source))
    handled: List[ast.AST] = []
    for node in ast.walk(tree):
        # Handlers: the keys of a dispatch table ...
        if isinstance(node, ast.Assign):
            if isinstance(node.value, ast.Dict) and any(
                isinstance(target, ast.Name) and target.id == _TABLE_NAME
                for target in node.targets
            ):
                handled.extend(key for key in node.value.keys if key is not None)
        # ... and isinstance dispatch inside dispatcher-named functions
        # (a negated guard handles the message in the rest of the body).
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and _HANDLER_NAME_RE.search(node.name):
            for sub in ast.walk(node):
                if isinstance(sub, ast.If):
                    handled.extend(_isinstance_names(sub.test))
        # Senders: every bare-name constructor call of a known message.
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in known
        ):
            scan.sender_sites.setdefault(node.func.id, []).append(node.lineno)
    for name, line in _name_ids(handled):
        if name in known:
            scan.handler_sites.setdefault(name, []).append(line)
    return scan


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def analyze_paths(
    paths: Sequence[Path], *, root: Optional[Path] = None
) -> ProtocolModel:
    """Extract the message-flow graph and derive conformance findings.

    ``paths`` are files or directories; the file assigning
    ``PROTOCOL_MESSAGES`` (normally ``core/messages.py``) is discovered
    among them and supplies the message specs.  Raises ``SyntaxError``
    on unparsable files — callers surface it as exit code 2, like the
    other checks.
    """
    files = iter_python_files([Path(p) for p in paths])
    trees: List[Tuple[str, str, ast.Module]] = []
    definition: Optional[_Definition] = None
    for file in files:
        source = file.read_text()
        tree = ast.parse(source, filename=str(file))
        shown = display_path(file, root)
        trees.append((shown, source, tree))
        if definition is None:
            extracted = _extract_definition(shown, tree)
            if extracted is not None:
                definition = extracted

    findings: List[Finding] = []
    flows: Dict[str, MessageFlow] = {}
    if definition is None:
        # Nothing to check against; an empty model with a synthetic
        # finding keeps the failure visible instead of vacuously green.
        findings.append(
            Finding(
                display_path(files[0], root) if files else "<none>",
                1,
                0,
                "protocol-unregistered",
                "no PROTOCOL_MESSAGES registry found in the scanned paths",
            )
        )
        return ProtocolModel(None, flows, findings, len(files))

    for name, (enveloped, group) in sorted(definition.specs.items()):
        flows[name] = MessageFlow(
            name=name,
            defined=(definition.path, definition.class_lines[name]),
            enveloped=enveloped,
            conservation=group,
        )
    # Only spec'd classes are messages; the module's other public
    # classes are tracked just far enough to catch one being dispatched.
    unspecd = {
        name
        for name in definition.class_lines
        if name not in flows and not name.startswith("_")
    }
    known = set(flows) | unspecd

    scans = [
        _scan_module(shown, source, tree, known)
        for shown, source, tree in trees
        if shown != definition.path
    ]
    for scan in scans:
        for name in sorted(flows.keys() & scan.handler_sites.keys()):
            for line in scan.handler_sites[name]:
                flows[name].handlers.append((scan.path, line))
        for name in sorted(flows.keys() & scan.sender_sites.keys()):
            for line in scan.sender_sites[name]:
                flows[name].senders.append((scan.path, line))

    def report(path: str, line: int, rule: str, message: str) -> None:
        for scan in scans:
            if scan.path == path:
                waived = scan.suppressed.get(line, ())
                if rule in waived or "*" in waived:
                    return
        findings.append(Finding(path, line, 0, rule, message))

    # -- flow rules -----------------------------------------------------
    for name in sorted(flows):
        flow = flows[name]
        if not flow.enveloped and not flow.handlers:
            report(
                *flow.defined,
                "protocol-orphan",
                f"{name} is constructed but no scanned module handles "
                "it (orphan message)",
            )
        if flow.handlers and not flow.senders and not flow.enveloped:
            report(
                *sorted(flow.handlers)[0],
                "protocol-dead-handler",
                f"{name} is handled here but never constructed in any "
                "scanned module",
            )
    for name in sorted(unspecd):
        if any(name in scan.handler_sites for scan in scans):
            report(
                definition.path,
                definition.class_lines[name],
                "protocol-unregistered",
                f"{name} is dispatched as a protocol message but carries "
                f"no @{_SPEC_DECORATOR} spec",
            )

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return ProtocolModel(definition.path, flows, findings, len(files))


def check_paths(
    paths: Sequence[Path], *, root: Optional[Path] = None
) -> List[Finding]:
    """CLI entry point: findings only (the flow graph is discarded)."""
    return analyze_paths(paths, root=root).findings
