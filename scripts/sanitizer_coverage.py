#!/usr/bin/env python
"""The sanitizer coverage gate (docs/static_analysis.md, "Coverage").

The RW-set sanitizer checks only the lines that run under it.  This
script runs the world-action test files below in-process under
``sys.settrace`` and, for the ``compute`` / ``_apply`` of every
``Action`` subclass in ``src/repro/world`` and ``examples``, records
which lines of the code object's line table ran while the frame's
``store`` was inside an action scope of a sanitized store.  It exits 1
and names every line that never ran that way.

    python scripts/sanitizer_coverage.py
"""
import importlib
import pkgutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

import repro.world  # noqa: E402
from repro.core.action import Action  # noqa: E402

#: The world-action tests.  Not the whole suite: a tracer changes what
#: ``tests/test_gc_parking.py`` counts, and forked workers run untraced.
TESTS = [
    "tests/test_combat.py",
    "tests/test_philosophers.py",
    "tests/test_siege.py",
    "tests/test_movement_manhattan.py",
    "tests/test_examples_docs.py",
]


def _targets():
    """``{code object: (label, executable lines)}`` to watch."""
    for info in pkgutil.iter_modules(repro.world.__path__, "repro.world."):
        importlib.import_module(info.name)
    for path in sorted((ROOT / "examples").glob("*.py")):
        importlib.import_module(f"examples.{path.stem}")
    targets, classes = {}, [Action]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        if not cls.__module__.startswith(("repro.world.", "examples.")):
            continue
        for name in ("compute", "_apply"):
            code = getattr(cls.__dict__.get(name), "__code__", None)
            if code is not None:
                lines = {line for _, _, line in code.co_lines() if line}
                lines.discard(code.co_firstlineno)
                targets[code] = (f"{cls.__name__}.{name}", lines)
    return targets


def _scoped(store) -> bool:
    """Is ``store`` (or the sanitized base it shares a scope with) inside
    an action scope right now?"""
    scope = getattr(store, "action_scope", None)
    return scope is not None and bool(scope.__self__._scopes)


def main() -> int:
    targets = _targets()
    ran = {code: set() for code in targets}

    def local(frame, event, arg):
        if event == "line" and _scoped(frame.f_locals.get("store")):
            ran[frame.f_code].add(frame.f_lineno)
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code in ran else None)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *TESTS])
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"sanitizer_coverage: the traced tests failed ({status})")
        return 1
    missed = []
    for code, (label, lines) in targets.items():
        where = Path(code.co_filename).resolve().relative_to(ROOT)
        missed += [(str(where), n, label) for n in sorted(lines - ran[code])]
    total = sum(len(lines) for _, lines in targets.values())
    print(f"sanitizer_coverage: {total - len(missed)} of {total} lines ran sanitized")
    for where, line, label in sorted(missed):
        print(f"  {where}:{line}: {label} never ran under the sanitizer")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
