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
:mod:`repro.analysis.sanitizer`
    Dynamic RW-set sanitizer: a TSan-style opt-in
    :class:`~repro.state.store.ObjectStore` wrapper that checks every
    actual access during :meth:`Action.apply` and flags reads outside
    RS(a), enumerations of the whole store and writes outside WS(a)
    (``--rwset-sanitizer``; ``scripts/sanitizer_coverage.py`` checks
    that every world action line runs under it in the tests).

Run the linter and the race explorer from the command line with
``python -m repro.analysis`` (see :mod:`repro.analysis.cli` for flags
and exit codes); ``scripts/lint.py`` is the repo-root wrapper
``scripts/test.sh`` uses.  The protocol's shape (every message
handled, every handled type spec'd and sent) is checked from the
runtime dispatch tables by ``tests/test_message_seam.py``.
"""

from repro.analysis.lint import Finding, lint_paths
from repro.analysis.sanitizer import (
    RWSetViolation,
    SanitizedStore,
    SanitizerRecorder,
    wrap_store,
)

__all__ = [
    "Finding",
    "lint_paths",
    "RWSetViolation",
    "SanitizedStore",
    "SanitizerRecorder",
    "wrap_store",
]
