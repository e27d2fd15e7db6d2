#!/usr/bin/env python3
"""Repo-root linter entry point: ``python scripts/lint.py [args...]``.

Thin wrapper over ``python -m repro.analysis`` (src need not be on
PYTHONPATH) that reports findings relative to the repo root.  Same
flags and exit codes as the module CLI — see docs/static_analysis.md.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.cli import main  # noqa: E402


def _argv() -> list:
    argv = sys.argv[1:]
    if "--root" not in argv:
        argv = [*argv, "--root", str(REPO_ROOT)]
    return argv


if __name__ == "__main__":
    sys.exit(main(_argv()))
