"""Static protocol conformance analyzer (docs/static_analysis.md).

The distributed protocol grown on top of SEVE — cross-shard span
forwarding, elastic epoch drains, gsn lease elections, crash/restart
incarnations — is a set of message dataclasses (``core/messages.py``)
wired to constructor sites (senders) and ``isinstance`` dispatch
branches (handlers) spread over many modules.  Example-based tests
exercise a handful of schedules; this module checks the *shape* of the
protocol mechanically, by AST extraction, against what the protocol
module declares:

* one ``@wire_message(...)`` spec per message class — together the
  closed set of message types.  ``enveloped=True`` marks a message that
  only travels nested inside another message's fields (no dispatch
  branch of its own); ``group="..."`` enrols it in a conservation group;
* ``CONSERVATION_GROUPS`` — per group, the sent/received counters that
  are summed into the quiescence check and must stay balanced.

The wire size, the binary codec and the runtime registries are compiled
from the same specs, so codec coverage holds by construction and is not
a rule here.  Specs and groups are parsed *statically* — the analyzer
never imports the code under analysis, so it works on corpora and
broken trees alike.

Checks
------
``protocol-orphan``
    A non-enveloped message with no ``isinstance`` dispatch branch
    anywhere in the scanned modules: constructed (or constructible) but
    never handled — exactly the shape of the PR 9 deferred-push replica
    gap, where a reply was parked and dropped.
``protocol-dead-handler``
    A dispatch branch for a message no scanned module constructs.
``protocol-unregistered``
    A public class of the protocol module that a dispatcher handles but
    that carries no spec — it can be neither sized nor encoded (private
    ``_Names`` are exempt — the ARQ layer is beneath the protocol).
``protocol-unaccounted-send``
    A conservation-group message constructed in a function that neither
    bumps the group's ``sent`` counter nor calls a helper that does —
    the send would not be counted, so quiescence could be declared with
    the message still in flight.
``protocol-unaccounted-handler``
    A dispatch branch for a conservation-group message that mutates
    state without bumping the group's ``received`` counter (directly or
    via a counted helper).

Findings reuse the lint :class:`~repro.analysis.lint.Finding` shape, so
the CLI baseline ratchet and ``# lint: allow(...)`` suppressions apply
unchanged.
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
        "dispatch branch for a message nothing constructs"
    ),
    "protocol-unregistered": (
        "dispatched protocol-module class without a @wire_message spec"
    ),
    "protocol-unaccounted-send": (
        "conservation-group message built outside a sent-counted path"
    ),
    "protocol-unaccounted-handler": (
        "conservation-group dispatch branch without the received bump"
    ),
}

#: Function names that mark a message dispatcher.
_HANDLER_NAME_RE = re.compile(r"(^|_)(on_|dispatch|deliver|handle)")

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


def _attribute_names(tree: ast.AST) -> Set[str]:
    """Every ``x.attr`` attribute name referenced anywhere in ``tree``."""
    return {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def _assigned_attrs(tree: ast.AST) -> Set[str]:
    """Attribute names written by Assign/AugAssign statements."""
    written: Set[str] = set()
    for node in ast.walk(tree):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute):
                written.add(target.attr)
    return written


def _self_method_calls(tree: ast.AST) -> Set[str]:
    """Names of ``self.<m>(...)`` / ``obj.<m>(...)`` calls in ``tree``."""
    return {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }


def _functions(tree: ast.AST):
    """Every (async) function definition anywhere in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# Protocol-definition module (message specs + conservation groups)
# ----------------------------------------------------------------------
@dataclass
class _Definition:
    path: str
    #: spec'd message name -> (enveloped, conservation group or None)
    specs: Dict[str, Tuple[bool, Optional[str]]] = field(default_factory=dict)
    conservation: Dict[str, dict] = field(default_factory=dict)
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
    """Parse the specs and groups out of a module; ``None`` when the
    module does not assign ``PROTOCOL_MESSAGES`` (i.e. is not the
    protocol definition module)."""
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
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if target.id == "PROTOCOL_MESSAGES":
            found_registry = True
        elif target.id == "CONSERVATION_GROUPS":
            try:
                groups = ast.literal_eval(node.value)
            except ValueError:
                groups = None
            if isinstance(groups, dict):
                definition.conservation = groups
    return definition if found_registry else None


# ----------------------------------------------------------------------
# Per-module extraction (senders, handlers, conservation accounting)
# ----------------------------------------------------------------------
@dataclass
class _ModuleScan:
    path: str
    #: message name -> [(line, branch-body statements or None)]
    handler_sites: Dict[str, List[Tuple[int, Optional[list]]]] = field(
        default_factory=dict
    )
    #: message name -> [(line, enclosing function node or None)]
    sender_sites: Dict[str, List[Tuple[int, Optional[ast.AST]]]] = field(
        default_factory=dict
    )
    #: function name -> set of attributes written in its body
    writes_by_function: Dict[str, Set[str]] = field(default_factory=dict)
    #: function name -> set of method names it calls
    calls_by_function: Dict[str, Set[str]] = field(default_factory=dict)
    suppressed: Dict[int, Set[str]] = field(default_factory=dict)


def _scan_module(
    path: str, source: str, tree: ast.Module, known: Set[str]
) -> _ModuleScan:
    scan = _ModuleScan(path, suppressed=_suppressions(source))

    # Function bookkeeping (conservation accounting needs to know which
    # functions bump which counters and which helpers they call).
    function_of: Dict[ast.AST, ast.AST] = {}
    for func in _functions(tree):
        scan.writes_by_function[func.name] = _assigned_attrs(func)
        scan.calls_by_function[func.name] = _self_method_calls(func)
        for sub in ast.walk(func):
            function_of.setdefault(sub, func)

    # Handlers: isinstance dispatch inside dispatcher-named functions.
    for func in _functions(tree):
        if not _HANDLER_NAME_RE.search(func.name):
            continue
        for sub in ast.walk(func):
            if not isinstance(sub, ast.If):
                continue
            negated = isinstance(sub.test, ast.UnaryOp) and isinstance(
                sub.test.op, ast.Not
            )
            for name, line in _name_ids(_isinstance_names(sub.test)):
                if name not in known:
                    continue
                # A negated guard (`if not isinstance(...): return`)
                # handles the message in the *rest* of the function.
                body = None if negated else sub.body
                scan.handler_sites.setdefault(name, []).append((line, body))

    # Senders: every bare-name constructor call of a known message.
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in known
        ):
            scan.sender_sites.setdefault(node.func.id, []).append(
                (node.lineno, function_of.get(node))
            )
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
            conservation=group if group in definition.conservation else None,
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
            for line, _body in scan.handler_sites[name]:
                flows[name].handlers.append((scan.path, line))
        for name in sorted(flows.keys() & scan.sender_sites.keys()):
            for line, _func in scan.sender_sites[name]:
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
                f"{name} is constructed but no scanned module dispatches "
                "it (orphan message)",
            )
        if flow.handlers and not flow.senders and not flow.enveloped:
            report(
                *sorted(flow.handlers)[0],
                "protocol-dead-handler",
                f"{name} is dispatched here but never constructed in any "
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

    # -- conservation accounting ----------------------------------------
    for group_name in sorted(definition.conservation):
        group = definition.conservation[group_name]
        module_suffix = group.get("module", "")
        sent_counter = group.get("sent", "")
        received_counter = group.get("received", "")
        members = {
            name for name, flow in flows.items() if flow.conservation == group_name
        }
        for scan in scans:
            in_module = scan.path.endswith(module_suffix)
            counted_senders = (
                {
                    fname
                    for fname, writes in scan.writes_by_function.items()
                    if sent_counter in writes
                }
                if in_module
                else set()
            )
            counted_receivers = {
                fname
                for fname, writes in scan.writes_by_function.items()
                if received_counter in writes
            }
            for name in sorted(members & set(scan.sender_sites)):
                for line, func in scan.sender_sites[name]:
                    fname = getattr(func, "name", None)
                    accounted = in_module and fname is not None and (
                        fname in counted_senders
                        or scan.calls_by_function.get(fname, set())
                        & counted_senders
                    )
                    if not accounted:
                        report(
                            scan.path,
                            line,
                            "protocol-unaccounted-send",
                            f"{name} ({group_name} group) constructed "
                            f"outside a path that bumps {sent_counter}",
                        )
            for name in sorted(members & set(scan.handler_sites)):
                for line, body in scan.handler_sites[name]:
                    if body is None:
                        continue  # negated guard: cannot attribute a body
                    branch = ast.Module(body=body, type_ignores=[])
                    mutates = bool(
                        _assigned_attrs(branch) or _self_method_calls(branch)
                    )
                    accounted = received_counter in _attribute_names(
                        branch
                    ) or (
                        _self_method_calls(branch) & counted_receivers
                    )
                    if mutates and not accounted:
                        report(
                            scan.path,
                            line,
                            "protocol-unaccounted-handler",
                            f"{name} ({group_name} group) handled here "
                            f"without bumping {received_counter}",
                        )

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return ProtocolModel(definition.path, flows, findings, len(files))


def check_paths(
    paths: Sequence[Path], *, root: Optional[Path] = None
) -> List[Finding]:
    """CLI entry point: findings only (the flow graph is discarded)."""
    return analyze_paths(paths, root=root).findings
