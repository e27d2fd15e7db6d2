#!/usr/bin/env python3
"""Documentation lint: link integrity, doc-map coverage, flag,
config-field and code-name freshness, and the generated settings table.

Nine checks, all cheap enough for every test run:

1. **Links resolve.**  Every relative markdown link in the repo's
   documentation (``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md``,
   ``ROADMAP.md``, ``CHANGES.md``, ``docs/*.md``) must point at a file
   or directory that exists.  Absolute URLs (``http://``/``https://``)
   and in-page anchors (``#...``) are skipped — we do not do network
   I/O in tests.
2. **The doc map is complete.**  Every file matching ``docs/*.md`` must
   be reachable from ``docs/index.md`` by following relative links, so
   a new document cannot silently miss the index.
3. **The doc-map table is exact.**  Both directions: every row of the
   ``docs/index.md`` doc-map table must point at an existing file
   under ``docs/``, and every ``docs/*.md`` (except the index itself)
   must have a row — reachability alone would let a document hide
   behind a transitive link without an entry describing it.
4. **Flags are real.**  Every ``--flag`` token the living
   documentation (as in check 5) mentions must either be an option of
   ``python -m repro run`` / ``experiment`` (asked of the parser: most
   ``run`` flags are derived from ``SimulationSettings``' fields, not
   written in ``cli.py``) or appear in the :data:`NON_CLI_FLAGS`
   allowlist of script/tool options, so a renamed or removed CLI
   argument cannot leave stale advice behind — while the history may
   still say what a removed flag did.
5. **Config fields are real.**  Every ``SeveConfig(keyword=...)`` /
   ``SeveConfig.field`` mention (likewise ``SimulationSettings`` and
   ``ShardingConfig``) in the *living* documentation — ``README.md``,
   ``DESIGN.md``, ``docs/*.md`` and the verify skill; not the
   historical ``ROADMAP.md``/``CHANGES.md`` — must name a field the
   dataclass has, so a deleted switch cannot stay advertised.
6. **The settings table is fresh.**  ``docs/settings.md`` is written
   from the field declarations of ``SimulationSettings`` by
   ``--write-settings``; the lint fails when regenerating would change
   it.
7. **Code names are real.**  Every ``Class.name`` inside a backticked
   code span of the living documentation (as in check 5), where
   ``Class`` is a class defined under ``src/repro``, must name
   something the class has: an attribute, method or property (its
   bases' included), a field it annotates, or an attribute its methods
   assign on ``self``.  A trailing ``*`` makes the name a prefix
   (``UniformGridIndex.query_*``).  So a renamed or moved method cannot
   stay advertised under its old owner.
8. **Repo paths are real.**  Every path inside a backticked code span
   of the living documentation (as in check 5) that starts with
   ``src/``, ``tests/``, ``scripts/``, ``benchmarks/``, ``docs/`` or
   ``examples/`` must exist (a ``*`` in it is a glob that must match
   something; a ``::`` suffix names something inside the file), so a
   moved or deleted file cannot stay cited.
9. **Bare class names are real.**  A backticked code span of the
   living documentation (as in check 5) that is one bare name of two
   or more characters starting with a capital — a CamelCase class or
   an ``UPPER_CASE`` constant — must name a class, or a constant
   assigned at module or class level, defined under ``src/repro`` or
   ``tests/reference``, or a Python builtin, or be in the short
   :data:`FOREIGN_NAMES` allowlist.  So a deleted class or constant
   cannot stay advertised by its bare name.

Exit status 0 when clean; 1 with one ``file: problem`` line per finding.

Run:  python scripts/docs_lint.py [--write-settings]
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
import importlib
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Top-level documents linted in addition to docs/*.md.
TOP_LEVEL_DOCS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "CHANGES.md",
)

#: Inline markdown links: [text](target).  Images (![alt](target)) are
#: matched too — their targets must exist just the same.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Fenced code blocks — links inside them are examples, not links.
FENCE_RE = re.compile(r"```.*?```", re.DOTALL)

#: Doc-map table rows in docs/index.md: lines whose first cell is a
#: markdown link to a document (the evolution table's rows lead with a
#: PR number, so only the doc-map table matches).
DOC_MAP_ROW_RE = re.compile(r"^\|\s*\[[^\]]+\]\(([^)\s]+\.md)\)", re.MULTILINE)

#: ``--flag`` tokens anywhere in a document, code fences included —
#: command examples are exactly the references that go stale.
FLAG_RE = re.compile(r"(?<![-\w])--[a-z][a-z0-9-]*")

#: Flags legitimately referenced by the documentation but not options
#: of ``python -m repro``: those of scripts/lint.py, scripts/test.sh,
#: scripts/bench.sh, scripts/code_size.py (``--json``, shared with
#: lint.py), this script, the benchmark drivers, pytest, and pip.
NON_CLI_FLAGS = frozenset({
    "--benchmark-only",
    "--check",
    "--exact",
    "--fast",
    "--faults",
    "--help",
    "--json",
    "--no-build-isolation",
    "--out",
    "--paper-scale",
    "--quick",
    "--race-budget",
    "--race-shrink-budget",
    "--reps",
    "--root",
    "--seconds",
    "--trace",
    "--workload",
    "--write-settings",
})


#: Config dataclasses the documentation names fields of -> the module
#: each lives in.
CONFIG_CLASSES = {
    "SeveConfig": "repro.core.engine",
    "SimulationSettings": "repro.harness.config",
    "ShardingConfig": "repro.core.sharded",
}

#: The generated run-parameter table (check 6).
SETTINGS_DOC = REPO_ROOT / "docs" / "settings.md"

#: ``Class.name`` (group 2 = the name) or ``Class(`` for the classes above.
CONFIG_REF_RE = re.compile(
    r"\b(%s)(?:\.([A-Za-z_]\w*)|\()" % "|".join(CONFIG_CLASSES)
)

#: A keyword argument name (``name=``, not ``name==``).
KEYWORD_RE = re.compile(r"([A-Za-z_]\w*)\s*=(?!=)")

#: Inline code spans (one may wrap a line), and inside one a
#: ``Class.name`` reference (check 7).
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
CLASS_NAME_RE = re.compile(r"(?<!\w)([A-Z]\w*)\.([A-Za-z_]\w*\*?)")
#: A code span that is one bare capitalised name (check 9).
BARE_NAME_RE = re.compile(r"[A-Z][A-Za-z0-9_]+")
#: Bare names the documentation cites that are defined outside
#: ``src/repro`` and ``tests/reference`` (check 9).
FOREIGN_NAMES = frozenset({
    "MESSAGES",  # tests/test_codec.py's sample table
    "Optional",  # typing
    "PYTHONPATH",  # an environment variable
    "RUSAGE_CHILDREN",  # the resource module
    "Speedometer",  # benchmarks/perf/calib.py
    "Stripe",  # tests/test_sharded.py's fake shard
    "VmHWM",  # a /proc/self/status field
})
#: A repo path inside a code span (check 8).
REPO_PATH_RE = re.compile(
    r"(?<![\w./-])((?:src|tests|scripts|benchmarks|docs|examples)/[\w./*-]*)"
)


def extract_links(text: str) -> list[str]:
    """All inline link targets in ``text``, code fences stripped.

    >>> extract_links("See [a](x.md) and ![img](y.png).")
    ['x.md', 'y.png']
    >>> extract_links("```\\n[not a link](skipped.md)\\n```")
    []
    """
    return LINK_RE.findall(FENCE_RE.sub("", text))


def is_checkable(target: str) -> bool:
    """Whether ``target`` is a relative path we can verify on disk.

    >>> is_checkable("../README.md")
    True
    >>> any(map(is_checkable, ["https://x.dev", "#anchor", "mailto:a@b"]))
    False
    """
    return not (
        "://" in target
        or target.startswith("#")
        or target.startswith("mailto:")
    )


def link_target_path(doc: pathlib.Path, target: str) -> pathlib.Path:
    """The filesystem path ``target`` points at, anchors stripped."""
    bare = target.split("#", 1)[0]
    return (doc.parent / bare).resolve()


def lint_links(docs: list[pathlib.Path]) -> list[str]:
    """``file: problem`` lines for every dangling relative link."""
    problems = []
    for doc in docs:
        for target in extract_links(doc.read_text()):
            if not is_checkable(target):
                continue
            if not link_target_path(doc, target).exists():
                rel = doc.relative_to(REPO_ROOT)
                problems.append(f"{rel}: dangling link ({target})")
    return problems


def lint_doc_map(docs_dir: pathlib.Path) -> list[str]:
    """``file: problem`` lines for docs/*.md unreachable from index.md."""
    index = docs_dir / "index.md"
    if not index.exists():
        return [f"{index.relative_to(REPO_ROOT)}: missing (the doc map)"]
    reachable = {index.resolve()}
    frontier = [index]
    while frontier:
        doc = frontier.pop()
        for target in extract_links(doc.read_text()):
            if not is_checkable(target):
                continue
            path = link_target_path(doc, target)
            if (
                path.suffix == ".md"
                and path.exists()
                and path not in reachable
            ):
                reachable.add(path)
                if docs_dir.resolve() in path.parents:
                    frontier.append(path)
    return [
        f"{doc.relative_to(REPO_ROOT)}: not reachable from docs/index.md"
        for doc in sorted(docs_dir.glob("*.md"))
        if doc.resolve() not in reachable
    ]


def doc_map_entries(index_text: str) -> list[str]:
    """Link targets of the doc-map table rows in ``index_text``.

    >>> doc_map_entries(
    ...     "| [a.md](a.md) | topic | when |\\n"
    ...     "|---|---|---|\\n"
    ...     "| 4 | evolution row | [a.md](a.md) |"
    ... )
    ['a.md']
    """
    return DOC_MAP_ROW_RE.findall(index_text)


def lint_doc_map_table(docs_dir: pathlib.Path) -> list[str]:
    """``file: problem`` lines for doc-map-table/``docs/*.md`` mismatches."""
    index = docs_dir / "index.md"
    if not index.exists():
        return []  # lint_doc_map already reports the missing index
    rel_index = index.relative_to(REPO_ROOT)
    problems = []
    listed = set()
    for target in doc_map_entries(index.read_text()):
        path = link_target_path(index, target)
        if path.exists():
            listed.add(path)
        else:
            problems.append(
                f"{rel_index}: doc-map entry points at missing file "
                f"({target})"
            )
    for doc in sorted(docs_dir.glob("*.md")):
        if doc.resolve() == index.resolve():
            continue
        if doc.resolve() not in listed:
            problems.append(
                f"{doc.relative_to(REPO_ROOT)}: missing from the "
                f"{rel_index} doc-map table"
            )
    return problems


def referenced_flags(text: str) -> list[str]:
    """All ``--flag`` tokens in ``text`` (fences included, dedup'd,
    sorted).

    >>> referenced_flags("Run with `--shards 4 --elastic`; a--b and "
    ...                  "|---| are not flags, --shards repeats.")
    ['--elastic', '--shards']
    """
    return sorted(set(FLAG_RE.findall(text)))


def cli_flags() -> frozenset:
    """The long options of ``python -m repro``'s subcommands, as its
    parser reports them.

    >>> {"--shards", "--spawn", "--crash-plan", "--moves"} <= cli_flags()
    True
    >>> "--num-clients" in cli_flags()  # the field's flag is --clients
    False
    """
    from repro.cli import build_parser

    subcommands = build_parser()._subparsers._group_actions[0].choices
    return frozenset(
        option
        for subparser in subcommands.values()
        for action in subparser._actions
        for option in action.option_strings
        if option.startswith("--")
    )


def lint_flags(docs: list[pathlib.Path]) -> list[str]:
    """``file: problem`` lines for ``--flag`` mentions that are neither
    CLI arguments nor allowlisted script options."""
    known = cli_flags() | NON_CLI_FLAGS
    problems = []
    for doc in docs:
        for flag in referenced_flags(doc.read_text()):
            if flag not in known:
                problems.append(
                    f"{doc.relative_to(REPO_ROOT)}: stale flag "
                    f"reference ({flag}) — not an option of python -m "
                    f"repro or in the NON_CLI_FLAGS allowlist"
                )
    return problems


def referenced_config_fields(text: str) -> list[tuple[str, str]]:
    """``(class, field)`` for every ``Class.field`` and every keyword
    of a ``Class(...)`` call in ``text`` (dedup'd, sorted).  Calls may
    wrap across lines; keywords of nested calls are not the class's.

    >>> referenced_config_fields(
    ...     "`SeveConfig(\\nmode='seve', fault_plan=FaultPlan(seed=3))` "
    ...     "and `ShardingConfig.shards`; a SeveConfig is not a reference."
    ... )
    [('SeveConfig', 'fault_plan'), ('SeveConfig', 'mode'), ('ShardingConfig', 'shards')]
    """
    found = set()
    for match in CONFIG_REF_RE.finditer(text):
        name, field = match.groups()
        if field is not None:
            found.add((name, field))
            continue
        depth, own = 1, []  # own: the call's text outside nested brackets
        for char in text[match.end():]:
            if char in "([{":
                depth += 1
            elif char in ")]}":
                depth -= 1
                if depth == 0:
                    found.update(
                        (name, keyword)
                        for keyword in KEYWORD_RE.findall("".join(own))
                    )
                    break
            elif depth == 1:
                own.append(char)
    return sorted(found)


def lint_config_fields(docs: list[pathlib.Path]) -> list[str]:
    """``file: problem`` lines for config-field mentions that name no
    field of the dataclass (inherited ones count)."""
    fields = {
        name: {
            field.name
            for field in dataclasses.fields(
                getattr(importlib.import_module(module), name)
            )
        }
        for name, module in CONFIG_CLASSES.items()
    }
    problems = []
    for doc in docs:
        for name, field in referenced_config_fields(doc.read_text()):
            if field not in fields[name]:
                problems.append(
                    f"{doc.relative_to(REPO_ROOT)}: stale config field "
                    f"({name}.{field}) — {name} declares no such field"
                )
    return problems


def referenced_class_names(text: str) -> list[tuple[str, str]]:
    """``(Class, name)`` for every ``Class.name`` inside a backticked
    code span of ``text``, code fences stripped (dedup'd, sorted).

    >>> referenced_class_names(
    ...     "`ShardServer.speaks_unprompted()`, `UniformGridIndex.query_*` "
    ...     "and `repro.core.spans.SpanPipeline.on_splice`; Foo.bar is prose."
    ... )
    [('ShardServer', 'speaks_unprompted'), ('SpanPipeline', 'on_splice'), ('UniformGridIndex', 'query_*')]
    """
    found = set()
    for span in CODE_SPAN_RE.findall(FENCE_RE.sub("", text)):
        found.update(CLASS_NAME_RE.findall(span))
    return sorted(found)


def class_names() -> dict:
    """Every class defined under ``src/repro`` -> the names it has: what
    ``dir`` reports of it, and the fields and ``self`` attributes that
    it and its bases defined there declare."""
    src = REPO_ROOT / "src"
    own: dict = {}  # (module, class) -> annotated fields and self attributes
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            found = own.setdefault((module, node.name), set())
            for sub in ast.walk(node):
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    found.add(sub.target.id)  # a field
                elif (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    found.add(sub.attr)
    names: dict = {}
    for (module, name), attrs in own.items():
        found = names.setdefault(name, set())
        found.update(attrs)
        cls = getattr(importlib.import_module(module), name, None)
        if isinstance(cls, type):  # else nested in a function: its AST only
            found.update(dir(cls))
            for base in cls.__mro__:
                found.update(own.get((base.__module__, base.__name__), ()))
    return names


def lint_class_names(docs: list[pathlib.Path]) -> list[str]:
    """``file: problem`` lines for ``Class.name`` mentions of a class
    under ``src/repro`` that has no such name."""
    names = class_names()
    problems = []
    for doc in docs:
        for cls, name in referenced_class_names(doc.read_text()):
            if cls not in names:
                continue
            if name.endswith("*"):
                real = any(known.startswith(name[:-1]) for known in names[cls])
            else:
                real = name in names[cls]
            if not real:
                problems.append(
                    f"{doc.relative_to(REPO_ROOT)}: stale code name "
                    f"({cls}.{name}) — {cls} has no such attribute"
                )
    return problems


def referenced_bare_names(text: str) -> list[str]:
    """Every backticked code span of ``text`` that is one bare
    capitalised name, code fences stripped (dedup'd, sorted).

    >>> referenced_bare_names(
    ...     "`GsnLease`, `LEASE_TIMEOUT_MS`, `GsnLease.start`, `E`, "
    ...     "`Random()` and `repro.net`; GsnLease is prose."
    ... )
    ['GsnLease', 'LEASE_TIMEOUT_MS']
    """
    return sorted({
        span
        for span in CODE_SPAN_RE.findall(FENCE_RE.sub("", text))
        if BARE_NAME_RE.fullmatch(span)
    })


def defined_names() -> set:
    """Every class, and every name assigned at module or class level,
    under ``src/repro`` and ``tests/reference``."""
    names = set()
    for root in ("src/repro", "tests/reference"):
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    names.add(node.name)
                if not isinstance(node, (ast.Module, ast.ClassDef)):
                    continue
                for statement in node.body:
                    if isinstance(statement, ast.Assign):
                        targets = statement.targets
                    elif isinstance(statement, ast.AnnAssign):
                        targets = [statement.target]
                    else:
                        continue
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def lint_bare_names(docs: list[pathlib.Path]) -> list[str]:
    """``file: problem`` lines for bare capitalised names that are
    neither defined in the tree, builtins nor allowlisted."""
    known = defined_names() | set(dir(builtins)) | FOREIGN_NAMES
    problems = []
    for doc in docs:
        for name in referenced_bare_names(doc.read_text()):
            if name not in known:
                problems.append(
                    f"{doc.relative_to(REPO_ROOT)}: stale bare name ({name}) "
                    f"— no class or constant of src/repro or tests/reference"
                )
    return problems


def referenced_repo_paths(text: str) -> list[str]:
    """Every repo path inside a backticked code span of ``text``, code
    fences stripped (dedup'd, sorted).

    >>> referenced_repo_paths(
    ...     "`tests/test_sharded.py::test_x`, `python scripts/lint.py`, "
    ...     "`docs/*.md`; src/prose/path.py is prose, `repro/obs` no path."
    ... )
    ['docs/*.md', 'scripts/lint.py', 'tests/test_sharded.py']
    """
    found = set()
    for span in CODE_SPAN_RE.findall(FENCE_RE.sub("", text)):
        found.update(path.rstrip(".") for path in REPO_PATH_RE.findall(span))
    return sorted(found)


def lint_repo_paths(docs: list[pathlib.Path]) -> list[str]:
    """``file: problem`` lines for cited repo paths that do not exist."""
    problems = []
    for doc in docs:
        for path in referenced_repo_paths(doc.read_text()):
            if "*" in path:
                real = any(REPO_ROOT.glob(path))
            else:
                real = (REPO_ROOT / path).exists()
            if not real:
                problems.append(
                    f"{doc.relative_to(REPO_ROOT)}: stale repo path ({path})"
                )
    return problems


SETTINGS_HEADER = """\
# Run parameters

<!-- Generated by `python scripts/docs_lint.py --write-settings` from the
field declarations of `SimulationSettings`; do not edit by hand. -->

Every run parameter is declared once, as a field of
`SimulationSettings` in
[`src/repro/harness/config.py`](../src/repro/harness/config.py): its
Table I default, how `python -m repro run` spells it, what `--help` says,
which values are legal and which per-layer configuration receives it.
The flags, the range checks, the copies into the layer configs and this
table are derived from those declarations.

- **Table I default** is what `SimulationSettings()` — the experiment
  drivers, the benchmarks, the tests — gets.  **CLI default** is given
  where `python -m repro run` deliberately differs: `--clients`,
  `--walls` and `--moves` default to a laptop-sized run, and
  `--rwset-sanitizer` to `off` where Python's `None` defers to the
  process-wide ambient mode.
- `Optional` numeric knobs accept the literal `none`
  (`--bandwidth-bps none`).  Every float knob must be finite: `nan`,
  `inf` and `-inf` end in one `repro: error:` line and exit code 2,
  like any value outside **legal values** — checked for every knob,
  so an out-of-range `--elastic-threshold` is refused without
  `--elastic` too.  The layers do not check these ranges again.
- **consumed by** names the receiving `layer.field`: `testbed` is
  `TestbedConfig` (every architecture), `seve` `SeveConfig`, `manhattan`
  `ManhattanConfig`, `sharding` `ShardingConfig`, `elastic`
  `ElasticConfig`, and `central` / `zoned` / `ring` those baseline
  engines' constructors.  *harness* knobs are read from the settings
  directly by the runner and the workload generator.
- `fault_plan` and `adversary` are composite: their flag groups
  (`--loss-rate` … `--crash-plan`, `--adversary`, `--adversary-seed`) are
  documented in [fault_model.md](fault_model.md) and
  [adversary.md](adversary.md).

| flag | field | Table I default | CLI default | legal values | consumed by | `--help` |
|---|---|---|---|---|---|---|
"""


def settings_doc() -> str:
    """The text of ``docs/settings.md``, from the declarations."""
    from repro.cli import run_flags
    from repro.harness.config import RANGES, SimulationSettings

    flag_of = {knob.name: flag for flag, knob in run_flags().items()}
    rows = []
    for knob in dataclasses.fields(SimulationSettings):
        spec = knob.metadata
        legal = [f"`{choice}`" for choice in spec.get("choices", ())]
        legal += [f"{words} {spec[key]}" for key, (_, words) in RANGES.items() if key in spec]
        targets = [
            f"`{target if '.' in target else f'{target}.{knob.name}'}`"
            for target in spec.get("to", "").split()
        ]
        cells = (
            f"`{flag_of[knob.name]}`" if knob.name in flag_of else "(flag group)",
            f"`{knob.name}`",
            f"`{knob.default}`",
            f"`{spec['cli']}`" if "cli" in spec else "",
            ", ".join(legal),
            ", ".join(targets) or "*harness*",
            spec.get("help", ""),
        )
        rows.append("| " + " | ".join(cells) + " |\n")
    return SETTINGS_HEADER + "".join(rows)


def lint_settings_doc() -> list[str]:
    """One ``file: problem`` line when ``docs/settings.md`` is not what
    the declarations generate."""
    if SETTINGS_DOC.exists() and SETTINGS_DOC.read_text() == settings_doc():
        return []
    return [
        f"{SETTINGS_DOC.relative_to(REPO_ROOT)}: stale — regenerate with "
        f"python scripts/docs_lint.py --write-settings"
    ]


def main() -> int:
    if "--write-settings" in sys.argv[1:]:
        SETTINGS_DOC.write_text(settings_doc())
    docs_dir = REPO_ROOT / "docs"
    docs = [
        REPO_ROOT / name
        for name in TOP_LEVEL_DOCS
        if (REPO_ROOT / name).exists()
    ] + sorted(docs_dir.glob("*.md"))
    skill = REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
    living = [
        doc
        for doc in docs + [skill]
        if doc.exists() and doc.name not in ("ROADMAP.md", "CHANGES.md")
    ]
    problems = (
        lint_links(docs)
        + lint_doc_map(docs_dir)
        + lint_doc_map_table(docs_dir)
        + lint_flags(living)
        + lint_config_fields(living)
        + lint_class_names(living)
        + lint_repo_paths(living)
        + lint_bare_names(living)
        + lint_settings_doc()
    )
    for problem in problems:
        print(problem)
    if not problems:
        print(f"docs lint: {len(docs)} documents clean")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
