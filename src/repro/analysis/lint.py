"""AST determinism linter (docs/static_analysis.md).

The simulation must be a pure function of its seeds: every replica that
replays the same inputs must take the same path, which is what the
differential tests and Theorem 1 compare.  This module subsumes the
grep-based determinism lint that used to live in ``scripts/test.sh``
with a real AST pass — no false hits inside strings or comments, and
rules greps cannot express (set-*typed* expressions, ``id()`` ordering,
serialization-scoped dict iteration).

Rule catalogue
--------------
``wall-clock``
    ``time.time()`` / ``time.monotonic()`` / ``datetime.now()`` /
    ``datetime.utcnow()``.  Simulated code must use the simulator
    clock.  (``time.perf_counter()`` is deliberately allowed: it feeds
    wall-clock *telemetry*, which never enters a simulated result.)
``module-random``
    Module-level ``random.random()``, ``random.choice()``, … — draws
    from the shared, unseeded global RNG.  Use a seeded
    ``random.Random(seed)`` instance.
``unseeded-random``
    ``random.Random()`` with no arguments seeds from the OS.
``set-iteration``
    Iterating a set literal, a set comprehension, a ``set(...)`` /
    ``frozenset(...)`` call, or a local variable assigned one of those,
    without ``sorted(...)``.  CPython's iteration order is not a
    language contract and string hashing is randomized across runs.
    Generator arguments of order-insensitive reducers (``sum``, ``any``,
    ``all``, ``min``, ``max``, ``len``, ``set``, ``frozenset``,
    ``sorted``) are exempt: the reduction's value does not depend on
    visit order.
``id-ordering``
    ``id()`` used as an ordering key (``sorted(key=id)``,
    ``.sort(key=id)``, ``min``/``max`` with an ``id`` key, or ``id(a) <
    id(b)`` comparisons).  Addresses differ across processes.
``dict-iter-serialization``
    Iterating ``.items()`` / ``.keys()`` / ``.values()`` without
    ``sorted(...)`` inside a function whose name marks it as a
    serialization/codec path (``serialize``, ``encode``, ``checksum``,
    ``write_json``, …).  Dict order is insertion order — real, but an
    accident of call history, so two replicas that learned objects in a
    different order serialize differently.

Suppressions
------------
Append ``# lint: allow(<rule>)`` to the offending line; several rules
may be comma-separated.  Suppressions are per-line and per-rule so a
waiver cannot silently widen.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

#: Rule name -> one-line description (the ``--list-rules`` catalogue).
RULES: Dict[str, str] = {
    "wall-clock": "wall-clock read (use the simulator clock)",
    "module-random": "module-level random.* call (use a seeded Random)",
    "unseeded-random": "random.Random() without a seed",
    "set-iteration": "iteration over a set without sorted(...)",
    "id-ordering": "id() used for ordering",
    "dict-iter-serialization": (
        "unsorted dict iteration in a serialization/codec path"
    ),
}

#: Module-level ``random.*`` functions that draw from the global RNG.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "getrandbits",
        "betavariate",
        "expovariate",
        "triangular",
    }
)

#: Function names that mark a serialization/codec path for the
#: ``dict-iter-serialization`` rule.
_SERIAL_NAME_RE = re.compile(
    r"serial|deserial|encode|decode|checksum|state_token|to_json|"
    r"write_json|write_chrome|to_bytes|from_bytes|pack|unpack|export|"
    r"fingerprint|digest|dump|wire_"
)

#: ``# lint: allow(rule-a, rule-b)`` per-line suppressions.
_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(([A-Za-z0-9_,\- ]+)\)")

#: Builtins whose value over a generator argument does not depend on
#: iteration order — generators feeding them may draw from sets/dicts.
_ORDER_FREE_REDUCERS = frozenset(
    {"sum", "any", "all", "min", "max", "len", "set", "frozenset", "sorted"}
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """``path:line:col: [rule] message`` — the human CLI format."""
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Line number -> rule names waived on that line (``*`` = all)."""
    allowed: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(text)
        if match:
            allowed[lineno] = {
                rule.strip() for rule in match.group(1).split(",") if rule.strip()
            }
    return allowed


def _is_name(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _calls_id(node: ast.AST) -> bool:
    """Whether ``node`` is (or contains, for lambdas) an ``id(...)`` call."""
    if _is_name(node, "id"):
        return True
    if isinstance(node, ast.Lambda):
        return any(
            isinstance(sub, ast.Call) and _is_name(sub.func, "id")
            for sub in ast.walk(node.body)
        )
    return False


class _Linter(ast.NodeVisitor):
    """One file's rule engine.

    Set-typedness is inferred per function scope: a local name assigned
    a set literal, a set comprehension, a ``set()``/``frozenset()``
    call, or a union/intersection of set-typed operands is set-typed.
    The inference is deliberately local and conservative — attributes
    and parameters are never inferred, so the rule cannot false-positive
    on `order-insensitive` reductions over collections it cannot see.
    """

    def __init__(self, path: str, allowed: Dict[int, Set[str]]) -> None:
        self.path = path
        self.allowed = allowed
        self.findings: List[Finding] = []
        #: Stack of per-function sets of set-typed local names.
        self._set_scopes: List[Set[str]] = []
        #: Stack of enclosing function names (serialization scoping).
        self._func_stack: List[str] = []
        #: Iterables of generators feeding order-insensitive reducers
        #: (identity-keyed: ast nodes hash by identity).
        self._exempt_iters: Set[ast.AST] = set()

    # -- reporting ------------------------------------------------------
    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        waived = self.allowed.get(line, ())
        if rule in waived or "*" in waived:
            return
        self.findings.append(
            Finding(self.path, line, getattr(node, "col_offset", 0), rule, message)
        )

    # -- scope bookkeeping ----------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def _enter_function(self, node) -> None:
        self._set_scopes.append(set())
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()
        self._set_scopes.pop()

    def _in_serialization_path(self) -> bool:
        return any(_SERIAL_NAME_RE.search(name) for name in self._func_stack)

    # -- set-typedness inference -----------------------------------------
    def _is_set_typed(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and (
            _is_name(node.func, "set") or _is_name(node.func, "frozenset")
        ):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in scope for scope in self._set_scopes)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_typed(node.left) or self._is_set_typed(node.right)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._set_scopes:
            scope = self._set_scopes[-1]
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if self._is_set_typed(node.value):
                        scope.add(target.id)
                    else:
                        scope.discard(target.id)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # ``s |= other`` keeps s set-typed; no new inference needed.
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (
            self._set_scopes
            and isinstance(node.target, ast.Name)
            and node.value is not None
        ):
            scope = self._set_scopes[-1]
            if self._is_set_typed(node.value):
                scope.add(node.target.id)
            else:
                scope.discard(node.target.id)
        self.generic_visit(node)

    # -- rules ------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner, attr = func.value, func.attr
            if _is_name(owner, "time") and attr in ("time", "monotonic"):
                self._report(
                    node, "wall-clock", f"time.{attr}() read in simulated code"
                )
            if attr in ("now", "utcnow") and (
                _is_name(owner, "datetime")
                or (
                    isinstance(owner, ast.Attribute)
                    and owner.attr == "datetime"
                    and _is_name(owner.value, "datetime")
                )
            ):
                self._report(node, "wall-clock", f"datetime.{attr}() read")
            if _is_name(owner, "random") and attr in _GLOBAL_RANDOM_FNS:
                self._report(
                    node,
                    "module-random",
                    f"random.{attr}() draws from the shared global RNG",
                )
            if (
                _is_name(owner, "random")
                and attr == "Random"
                and not node.args
                and not node.keywords
            ):
                self._report(
                    node, "unseeded-random", "random.Random() seeds from the OS"
                )
            if attr == "sort":
                self._check_id_key(node)
        elif isinstance(func, ast.Name):
            if func.id == "Random" and not node.args and not node.keywords:
                self._report(
                    node, "unseeded-random", "Random() seeds from the OS"
                )
            if func.id in ("sorted", "min", "max"):
                self._check_id_key(node)
            if func.id in _ORDER_FREE_REDUCERS:
                for arg in node.args:
                    if isinstance(arg, ast.GeneratorExp):
                        for gen in arg.generators:
                            self._exempt_iters.add(gen.iter)
        self.generic_visit(node)

    def _check_id_key(self, node: ast.Call) -> None:
        for keyword in node.keywords:
            if keyword.arg == "key" and _calls_id(keyword.value):
                self._report(
                    node,
                    "id-ordering",
                    "ordering by id(): addresses differ across processes",
                )

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        if any(
            isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
            for op in node.ops
        ) and any(
            isinstance(operand, ast.Call) and _is_name(operand.func, "id")
            for operand in operands
        ):
            self._report(
                node,
                "id-ordering",
                "comparing id() values: addresses differ across processes",
            )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _check_iteration(self, iter_node: ast.AST) -> None:
        if iter_node in self._exempt_iters:
            return
        if self._is_set_typed(iter_node):
            self._report(
                iter_node,
                "set-iteration",
                "iterating a set without sorted(): order is not a "
                "language contract",
            )
            return
        if self._in_serialization_path() and (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and iter_node.func.attr in ("items", "keys", "values")
            and not iter_node.args
        ):
            self._report(
                iter_node,
                "dict-iter-serialization",
                f"unsorted .{iter_node.func.attr}() iteration in a "
                "serialization path (wrap in sorted())",
            )


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one Python source string; returns unsuppressed findings."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(path, _suppressions(source))
    linter.visit(tree)
    return sorted(linter.findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def display_path(path: Path, root: Optional[Path]) -> str:
    """``path`` relative to ``root`` when under it, else as given."""
    if root is not None:
        try:
            return str(path.relative_to(root))
        except ValueError:
            pass
    return str(path)


def lint_file(path: Path, *, root: Optional[Path] = None) -> List[Finding]:
    """Lint one file; paths in findings are relative to ``root``."""
    return lint_source(path.read_text(), display_path(path, root))


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    files: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def lint_paths(
    paths: Iterable[Path], *, root: Optional[Path] = None
) -> List[Finding]:
    """Lint every ``*.py`` file under ``paths`` (files or directories)."""
    findings: List[Finding] = []
    for file in iter_python_files([Path(p) for p in paths]):
        findings.extend(lint_file(file, root=root))
    return findings
