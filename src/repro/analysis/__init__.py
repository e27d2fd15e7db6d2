"""Static analysis and dynamic conformance checking for the action
protocol's two load-bearing contracts (docs/static_analysis.md).

The paper's scalability argument (Section III-C) rests on actions being
honest about their declared read/write sets — the server only does set
algebra over RS(a)/WS(a), it never runs the action code — and on
``apply`` being a pure, deterministic function of the RS(a) values.
Neither contract is self-enforcing, so this package checks both:

:mod:`repro.analysis.lint`
    AST determinism linter: a visitor-based rule engine banning
    wall-clock reads, unseeded RNGs, unsorted set iteration,
    ``id()``-based ordering, and unsorted dict iteration in
    serialization paths from the library, with per-line suppressions.
:mod:`repro.analysis.rwset_static`
    Static RW-set escape analysis: for every :class:`Action` subclass,
    walk the ``compute``/``apply`` ASTs and flag store accesses that
    can touch object ids outside the declared ``reads``/``writes``.
:mod:`repro.analysis.sanitizer`
    Dynamic RW-set sanitizer: a TSan-style opt-in
    :class:`~repro.state.store.ObjectStore` wrapper that records every
    actual get/set during :meth:`Action.apply` and flags accesses
    outside RS(a)/WS(a) (``--rwset-sanitizer``).

Run the first two from the command line with ``python -m
repro.analysis`` (see :mod:`repro.analysis.cli` for flags and exit
codes); ``scripts/lint.py`` is the repo-root wrapper the test driver
uses.
"""

from repro.analysis.lint import Finding, lint_paths
from repro.analysis.rwset_static import RWSetEscape, check_paths
from repro.analysis.sanitizer import (
    RWSetViolation,
    SanitizedStore,
    SanitizerRecorder,
    wrap_store,
)

__all__ = [
    "Finding",
    "lint_paths",
    "RWSetEscape",
    "check_paths",
    "RWSetViolation",
    "SanitizedStore",
    "SanitizerRecorder",
    "wrap_store",
]
