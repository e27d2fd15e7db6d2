"""Puts the benchmark's modules and ``src/`` on the import path."""

import os
import sys

PERF = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
ROOT = os.path.normpath(os.path.join(PERF, "..", ".."))
for path in (os.path.join(ROOT, "src"), PERF):
    if path not in sys.path:
        sys.path.insert(0, path)
