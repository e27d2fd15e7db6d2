#!/usr/bin/env python
"""Code size of ``src/repro`` — the numbers CHANGES.md and ROADMAP quote.

A *code line* is a physical line carrying a token that is not a comment,
a blank or part of a docstring (a string that is a whole statement).
Prints per-package and total code lines and the field counts of the four
configuration dataclasses; ``--json`` adds the per-file counts.
"""
import dataclasses
import io
import json
import pathlib
import sys
import tokenize as tk

ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
sys.path.insert(0, str(ROOT.parent))
LAYOUT = {tk.COMMENT, tk.NL, tk.NEWLINE, tk.INDENT, tk.DEDENT, tk.ENCODING, tk.ENDMARKER}


def code_lines(source: str) -> int:
    lines, at_statement_start = set(), True
    for token in tk.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT:
            at_statement_start |= token.type in (tk.NEWLINE, tk.INDENT, tk.DEDENT)
            continue
        if not (at_statement_start and token.type == tk.STRING):
            lines.update(range(token.start[0], token.end[0] + 1))
        at_statement_start = False
    return len(lines)


def main() -> None:
    from repro.core import control_plane, engine, sharded
    from repro.harness.config import SimulationSettings

    configs = (engine.SeveConfig, SimulationSettings, sharded.ShardingConfig, control_plane.ControlPlaneConfig)
    fields = {cls.__name__: len(dataclasses.fields(cls)) for cls in configs}
    files = {str(p.relative_to(ROOT)): code_lines(p.read_text()) for p in sorted(ROOT.rglob("*.py"))}
    packages: dict = {}
    for name, count in files.items():
        package = name.split("/")[0] if "/" in name else "."
        packages[package] = packages.get(package, 0) + count
    if "--json" in sys.argv[1:]:
        print(json.dumps({"total": sum(files.values()), "packages": packages, "files": files, "fields": fields}, indent=1))
        return
    for package, count in packages.items():
        print(f"{package:12s} {count:6d}")
    print(f"{'src/repro':12s} {sum(files.values()):6d} code lines")
    print("fields:", ", ".join(f"{name} {count}" for name, count in fields.items()))


if __name__ == "__main__":
    main()
