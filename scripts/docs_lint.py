#!/usr/bin/env python3
"""Documentation lint: link integrity, doc-map coverage, flag and
config-field freshness.

Five checks, all cheap enough for every test run:

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
4. **Flags are real.**  Every ``--flag`` token the documentation
   mentions must either be defined by ``src/repro/cli.py`` or appear
   in the :data:`NON_CLI_FLAGS` allowlist of script/tool options, so
   a renamed or removed CLI argument cannot leave stale advice behind.
5. **Config fields are real.**  Every ``SeveConfig(keyword=...)`` /
   ``SeveConfig.field`` mention (likewise ``SimulationSettings`` and
   ``ShardingConfig``) in the *living* documentation — ``README.md``,
   ``DESIGN.md``, ``docs/*.md`` and the verify skill; not the
   historical ``ROADMAP.md``/``CHANGES.md`` — must name a field the
   dataclass declares, so a deleted switch cannot stay advertised.

Exit status 0 when clean; 1 with one ``file: problem`` line per finding.

Run:  python scripts/docs_lint.py
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

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

#: Flags legitimately referenced by the documentation but not defined
#: in ``src/repro/cli.py``: options of scripts/lint.py, scripts/test.sh,
#: scripts/bench.sh, scripts/code_size.py (``--json``, shared with
#: lint.py), the benchmark drivers, pytest, and pip.
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
})


#: Config dataclasses the documentation names fields of -> the source
#: file declaring each (parsed, never imported).
CONFIG_CLASSES = {
    "SeveConfig": "src/repro/core/engine.py",
    "SimulationSettings": "src/repro/harness/config.py",
    "ShardingConfig": "src/repro/core/sharded.py",
}

#: ``Class.name`` (group 2 = the name) or ``Class(`` for the classes above.
CONFIG_REF_RE = re.compile(
    r"\b(%s)(?:\.([A-Za-z_]\w*)|\()" % "|".join(CONFIG_CLASSES)
)

#: A keyword argument name (``name=``, not ``name==``).
KEYWORD_RE = re.compile(r"([A-Za-z_]\w*)\s*=(?!=)")


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


def cli_flags(cli_source: str) -> frozenset:
    """The long options ``src/repro/cli.py`` defines — every quoted
    ``"--..."`` literal (all of which are ``add_argument`` names).

    >>> sorted(cli_flags('p.add_argument("--shards", type=int)\\n'
    ...                  'q.add_argument("--elastic", action="x")'))
    ['--elastic', '--shards']
    """
    return frozenset(re.findall(r'"(--[a-z][a-z0-9-]*)"', cli_source))


def lint_flags(docs: list[pathlib.Path]) -> list[str]:
    """``file: problem`` lines for ``--flag`` mentions that are neither
    CLI arguments nor allowlisted script options."""
    known = cli_flags(
        (REPO_ROOT / "src" / "repro" / "cli.py").read_text()
    ) | NON_CLI_FLAGS
    problems = []
    for doc in docs:
        for flag in referenced_flags(doc.read_text()):
            if flag not in known:
                problems.append(
                    f"{doc.relative_to(REPO_ROOT)}: stale flag "
                    f"reference ({flag}) — not in repro/cli.py or the "
                    f"NON_CLI_FLAGS allowlist"
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


def dataclass_fields(source: str, class_name: str) -> frozenset:
    """The annotated class-level names of ``class_name`` in ``source``.

    >>> sorted(dataclass_fields(
    ...     "class C:\\n    a: int = 1\\n    b: str\\n    def f(self): pass",
    ...     "C"))
    ['a', 'b']
    """
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return frozenset(
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
            )
    return frozenset()


def lint_config_fields(docs: list[pathlib.Path]) -> list[str]:
    """``file: problem`` lines for config-field mentions that name no
    declared field of the dataclass."""
    fields = {
        name: dataclass_fields((REPO_ROOT / path).read_text(), name)
        for name, path in CONFIG_CLASSES.items()
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


def main() -> int:
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
        + lint_flags(docs)
        + lint_config_fields(living)
    )
    for problem in problems:
        print(problem)
    if not problems:
        print(f"docs lint: {len(docs)} documents clean")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
