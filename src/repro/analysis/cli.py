"""Command-line front end for the static checks: ``python -m
repro.analysis`` (docs/static_analysis.md).

Runs the determinism linter, the static RW-set escape analysis, the
protocol conformance analyzer, and/or the schedule-permutation race
explorer over a set of files or directories and prints findings one
per line (``path:line:col: [rule] message``), or a JSON document with
``--json`` for CI consumption.  A bare check name may be given as the
first positional argument (``python -m repro.analysis protocol``) as
shorthand for ``--check``.

Exit codes
----------
0   clean — no findings
1   findings were reported
2   usage error (unknown path, syntax error in a checked file)

The one suppression mechanism is the inline ``# lint: allow(rule)``
comment on the offending line (docs/static_analysis.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.lint import Finding, lint_paths
from repro.analysis.rwset_static import RWSetEscape, check_paths

#: Default targets per check when no paths are given on the command
#: line.  The determinism linter covers the whole library; the RW-set
#: checker only makes sense where Action subclasses live; the protocol
#: analyzer needs every module that constructs or handles messages.
_DEFAULT_PATHS = {
    "determinism": ["src/repro"],
    "rwset": ["src/repro/world", "examples"],
    "protocol": ["src/repro/core", "src/repro/net", "src/repro/baselines"],
    "races": [],
}

#: Check names accepted positionally (``python -m repro.analysis
#: protocol``) and by ``--check``.
CHECK_NAMES = ("determinism", "rwset", "protocol", "races", "all")

def _finding_dict(finding) -> dict:
    """JSON form of a lint Finding or an RWSetEscape."""
    if isinstance(finding, Finding):
        return {
            "path": finding.path,
            "line": finding.line,
            "col": finding.col,
            "rule": finding.rule,
            "message": finding.message,
        }
    assert isinstance(finding, RWSetEscape)
    return {
        "path": finding.path,
        "line": finding.line,
        "rule": "rwset-escape",
        "message": finding.message,
        "class": finding.cls,
        "method": finding.method,
        "kind": finding.kind,
        "expr": finding.expr,
    }


def _race_findings(budget: int, shrink_budget: int) -> List[Finding]:
    """Run the schedule-permutation explorer and fold violations into
    synthetic findings so the rendering/JSON machinery applies.

    Dynamic check: ignores positional paths.  Each violation becomes a
    ``race-violation`` finding whose path is ``races:<scenario>``.
    """
    from repro.analysis.races import explore

    report = explore(budget=budget, shrink_budget=shrink_budget)
    findings: List[Finding] = []
    for result in report.results:
        for violation in result.violations:
            where = (
                "windows " + ",".join(str(w) for w in violation.windows)
                if violation.windows is not None
                else "identity schedule"
            )
            message = (
                f"[{violation.rule}] {where}: "
                + "; ".join(violation.problems)
            )
            findings.append(
                Finding(
                    path=f"races:{result.scenario}",
                    line=0,
                    col=0,
                    rule="race-violation",
                    message=message,
                )
            )
    return findings


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Determinism linter and static RW-set conformance checker "
            "for the repro codebase (docs/static_analysis.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to check (defaults depend on --check)",
    )
    parser.add_argument(
        "--check",
        choices=list(CHECK_NAMES),
        default="determinism",
        help=(
            "which analysis to run (default: determinism; 'all' = "
            "determinism + rwset + protocol; 'races' runs the dynamic "
            "schedule-permutation explorer and is never implied)"
        ),
    )
    parser.add_argument(
        "--race-budget",
        type=int,
        default=12,
        metavar="N",
        help="max extra single-window probes per race scenario (default: 12)",
    )
    parser.add_argument(
        "--race-shrink-budget",
        type=int,
        default=8,
        metavar="N",
        help="max ddmin probe runs when shrinking a violation (default: 8)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a JSON document instead of one finding per line",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        metavar="DIR",
        help="directory findings are reported relative to (default: cwd)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Positional sugar: `python -m repro.analysis protocol` reads as
    # `--check protocol`.
    if argv and argv[0] in CHECK_NAMES:
        argv[0:1] = ["--check", argv[0]]
    parser = build_parser()
    args = parser.parse_args(argv)
    root = (args.root or Path.cwd()).resolve()

    if args.check == "all":
        checks = ["determinism", "rwset", "protocol"]
    else:
        checks = [args.check]
    findings: List = []
    try:
        for check in checks:
            if check == "races":
                findings.extend(
                    _race_findings(args.race_budget, args.race_shrink_budget)
                )
                continue
            paths = [Path(p).resolve() for p in args.paths] or [
                root / p for p in _DEFAULT_PATHS[check]
            ]
            for path in paths:
                if not Path(path).exists():
                    print(f"error: no such path: {path}", file=sys.stderr)
                    return 2
            if check == "determinism":
                findings.extend(lint_paths(paths, root=root))
            elif check == "rwset":
                findings.extend(check_paths(paths, root=root))
            else:
                from repro.analysis.protocol import (
                    check_paths as protocol_check_paths,
                )

                findings.extend(protocol_check_paths(paths, root=root))
    except (SyntaxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    findings.sort(key=lambda f: (f.path, f.line))

    if args.json:
        document = {
            "checks": checks,
            "count": len(findings),
            "findings": [_finding_dict(f) for f in findings],
        }
        print(json.dumps(document, indent=2))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            print(
                f"{len(findings)} finding(s); see docs/static_analysis.md for "
                "the rule catalogue and suppression syntax",
                file=sys.stderr,
            )
    return 1 if findings else 0
