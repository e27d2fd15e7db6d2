"""Static RW-set escape analysis (docs/static_analysis.md).

The server never runs action code — it trusts the declared RS(a)/WS(a)
and does set algebra (Section III-C).  This pass checks the half of
that trust that is decidable before running anything: for every
:class:`~repro.core.action.Action` subclass in a set of files, walk the
``compute``/``apply`` ASTs and verify that every store access can only
ever touch object ids drawn from the declared ``reads``/``writes``.

How an id is proven declared
----------------------------
``__init__`` is analyzed first: the names (parameters and ``self``
attributes) feeding the ``reads=`` / ``writes=`` expressions of the
``super().__init__(...)`` call become the class's *read sources* and
*write sources*; a ``self.X = <expr over read sources>`` assignment
makes ``self.X`` read-safe (likewise for writes).  Inside a method that
takes a store, an expression is *safe* when its ids provably come from
safe sources: ``self.reads``/``self.writes``, safe attributes, locals
assigned from safe expressions, loop variables over safe iterables, and
order/type-preserving wrappers (``sorted``, ``frozenset``, set union of
safe sets, ``.items()`` of a safe mapping, …).  Everything else —
constants, unrelated attributes, whole-store iteration — *escapes* and
is reported with file:line provenance.

The analysis is deliberately conservative in the reporting direction:
it only proves safety, never membership, so a flagged access may be
innocent in context.  Genuine false positives are waived per line with
``# lint: allow(rwset-escape)`` (same syntax as the determinism
linter), which keeps every waiver visible in the diff.

The dynamic complement is :mod:`repro.analysis.sanitizer`, which checks
the *actual* ids touched at runtime.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint import _suppressions, display_path, iter_python_files

#: The suppression rule name honoured by this checker.
RULE = "rwset-escape"

#: Class names that seed Action-subclass discovery.
_ACTION_BASES = frozenset({"Action", "BlindWrite"})

#: Store methods whose argument carries object ids that are *read*.
_READ_METHODS = frozenset({"get", "values_of", "values_of_present"})

#: Store methods whose argument carries object ids that are *written*.
_WRITE_METHODS = frozenset({"install", "merge"})

#: Wrappers that preserve "ids drawn from a safe source".
_SAFE_WRAPPERS = frozenset(
    {"sorted", "frozenset", "set", "list", "tuple", "iter", "reversed", "next"}
)


@dataclass(frozen=True)
class RWSetEscape:
    """One store access that may touch ids outside the declared sets."""

    path: str
    line: int
    cls: str
    method: str
    kind: str  # "read" | "write"
    expr: str
    message: str

    def render(self) -> str:
        """``path:line: [rwset-escape] message`` — the CLI format."""
        return (
            f"{self.path}:{self.line}: [{RULE}] {self.cls}.{self.method}: "
            f"{self.message}"
        )


# -- atoms: where can an id in an expression come from? -----------------
# ("param", name) — an __init__ parameter; ("attr", name) — a self
# attribute.  Constants contribute nothing (and are therefore unsafe as
# ids: a literal's membership in a per-instance set is undecidable).
Atom = Tuple[str, str]


def _expr_atoms(
    node: ast.AST, env: Dict[str, FrozenSet[Atom]], params: Set[str]
) -> FrozenSet[Atom]:
    """All parameter/attribute atoms an expression's value derives from."""
    atoms: Set[Atom] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in env:
                atoms |= env[sub.id]
            elif sub.id in params:
                atoms.add(("param", sub.id))
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            atoms.add(("attr", sub.attr))
    return frozenset(atoms)


@dataclass
class ClassContract:
    """What ``__init__`` declared: the safe attribute sets per kind."""

    name: str
    read_attrs: Set[str] = field(default_factory=set)
    write_attrs: Set[str] = field(default_factory=set)

    def safe_attrs(self, kind: str) -> Set[str]:
        return self.read_attrs if kind == "read" else self.write_attrs


def _analyze_init(
    cls: ast.ClassDef, inherited: Optional[ClassContract]
) -> ClassContract:
    """Derive the class's safe-attribute contract from ``__init__``.

    A class without its own ``__init__`` inherits its base's contract.
    """
    contract = ClassContract(cls.name)
    if inherited is not None:
        contract.read_attrs |= inherited.read_attrs
        contract.write_attrs |= inherited.write_attrs
    init = next(
        (
            node
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "__init__"
        ),
        None,
    )
    if init is None:
        return contract

    params = {arg.arg for arg in init.args.args if arg.arg != "self"}
    params |= {arg.arg for arg in init.args.kwonlyargs}
    env: Dict[str, FrozenSet[Atom]] = {}
    self_assign: Dict[str, FrozenSet[Atom]] = {}
    read_sources: FrozenSet[Atom] = frozenset()
    write_sources: FrozenSet[Atom] = frozenset()

    for stmt in ast.walk(init):
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            atoms = _expr_atoms(stmt.value, env, params)
            if isinstance(target, ast.Name):
                env[target.id] = atoms
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self_assign[target.attr] = atoms
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            func = call.func
            is_super_init = (
                isinstance(func, ast.Attribute)
                and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
            )
            if not is_super_init:
                continue
            reads_kw = next(
                (kw.value for kw in call.keywords if kw.arg == "reads"), None
            )
            writes_kw = next(
                (kw.value for kw in call.keywords if kw.arg == "writes"), None
            )
            if reads_kw is not None:
                read_sources = _expr_atoms(reads_kw, env, params)
            if writes_kw is not None:
                write_sources = _expr_atoms(writes_kw, env, params)
            if reads_kw is None and writes_kw is None:
                # Delegating to an intermediate base whose parameter
                # mapping we do not track: conservatively treat every
                # forwarded value as a potential read/write source, so
                # only genuinely foreign attributes get flagged.
                forwarded = frozenset().union(
                    *(
                        _expr_atoms(arg, env, params)
                        for arg in [*call.args, *(kw.value for kw in call.keywords)]
                    )
                ) if (call.args or call.keywords) else frozenset()
                read_sources, write_sources = forwarded, forwarded

    for kind, sources, attrs in (
        ("read", read_sources, contract.read_attrs),
        ("write", write_sources, contract.write_attrs),
    ):
        for atom_kind, name in sources:
            if atom_kind == "attr":
                attrs.add(name)
        for attr, atoms in self_assign.items():
            if atoms and atoms <= sources:
                attrs.add(attr)
    # RS ⊇ WS is enforced at construction, so write-safe ids are also
    # read-safe (a written attribute may be read back).
    contract.read_attrs |= contract.write_attrs
    return contract


class _MethodChecker(ast.NodeVisitor):
    """Walk one method body tracking id-safety of locals and flagging
    store accesses whose id expression cannot be proven declared."""

    def __init__(
        self,
        path: str,
        cls: str,
        method: ast.FunctionDef,
        contract: ClassContract,
        store_param: str,
        allowed: Dict[int, Set[str]],
        source_lines: List[str],
    ) -> None:
        self.path = path
        self.cls = cls
        self.method = method.name
        self.contract = contract
        self.store = store_param
        self.allowed = allowed
        self.lines = source_lines
        self.escapes: List[RWSetEscape] = []
        #: Locals proven safe, per kind.
        self.safe: Dict[str, Set[str]] = {"read": set(), "write": set()}
        #: Names of dicts that flow into a ``return`` (their keys are
        #: write-checked on subscript assignment).
        self.returned_dicts: Set[str] = set()
        self._collect_returned_dicts(method)

    # -- safety ---------------------------------------------------------
    def _is_safe(self, node: ast.AST, kind: str) -> bool:
        if isinstance(node, ast.Constant):
            return node.value is None  # None is never an id; literals escape
        if isinstance(node, ast.Name):
            return node.id in self.safe[kind]
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            if node.attr == "writes":
                return True  # WS ⊆ RS: safe for both kinds
            if node.attr == "reads":
                return kind == "read"
            return node.attr in self.contract.safe_attrs(kind)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SAFE_WRAPPERS:
                return bool(node.args) and self._is_safe(node.args[0], kind)
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("items", "keys", "copy", "union", "intersection")
                and not node.args
            ):
                return self._is_safe(func.value, kind)
            return False
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.BitAnd,)):
                # Intersection: safe if either operand is.
                return self._is_safe(node.left, kind) or self._is_safe(
                    node.right, kind
                )
            if isinstance(node.op, (ast.Sub,)):
                return self._is_safe(node.left, kind)
            if isinstance(node.op, (ast.BitOr, ast.BitXor)):
                return self._is_safe(node.left, kind) and self._is_safe(
                    node.right, kind
                )
            return False
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return all(self._is_safe(elt, kind) for elt in node.elts)
        if isinstance(node, ast.IfExp):
            return self._is_safe(node.body, kind) and self._is_safe(
                node.orelse, kind
            )
        if isinstance(node, ast.Subscript):
            return self._is_safe(node.value, kind)
        if isinstance(node, (ast.DictComp, ast.SetComp, ast.GeneratorExp)):
            # Safe when every generator draws from a safe iterable and
            # the produced key/element only rearranges those bindings.
            bound = {
                name.id
                for gen in node.generators
                for name in ast.walk(gen.target)
                if isinstance(name, ast.Name)
            }
            if not all(
                self._is_safe(gen.iter, kind) for gen in node.generators
            ):
                return False
            produced = node.key if isinstance(node, ast.DictComp) else node.elt
            return all(
                isinstance(sub, ast.Name) and sub.id in (bound | self.safe[kind])
                for sub in [produced]
            ) or self._is_safe(produced, kind)
        return False

    def _bind_target(self, target: ast.AST, safe: Dict[str, bool]) -> None:
        for name in ast.walk(target):
            if isinstance(name, ast.Name):
                for kind in ("read", "write"):
                    if safe[kind]:
                        self.safe[kind].add(name.id)
                    else:
                        self.safe[kind].discard(name.id)

    # -- reporting ------------------------------------------------------
    def _report(self, node: ast.AST, kind: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        waived = self.allowed.get(line, ())
        if RULE in waived or "*" in waived:
            return
        snippet = ""
        if 0 < line <= len(self.lines):
            snippet = self.lines[line - 1].strip()
        self.escapes.append(
            RWSetEscape(
                self.path, line, self.cls, self.method, kind, snippet, message
            )
        )

    # -- traversal ------------------------------------------------------
    def _collect_returned_dicts(self, method: ast.FunctionDef) -> None:
        for node in ast.walk(method):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
                self.returned_dicts.add(node.value.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        safe = {
            kind: self._is_safe(node.value, kind) for kind in ("read", "write")
        }
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._bind_target(target, safe)
            elif isinstance(target, ast.Subscript) and (
                isinstance(target.value, ast.Name)
                and target.value.id in self.returned_dicts
            ):
                # ``values[oid] = {...}`` on a returned values dict: the
                # key is a written object id.
                if not self._is_safe(target.slice, "write"):
                    self._report(
                        target,
                        "write",
                        "returned values dict keyed by an id not provably "
                        "in the declared write set",
                    )
        # Dict literals bound to a returned name: check keys now.
        if (
            isinstance(node.value, ast.Dict)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in self.returned_dicts
        ):
            self._check_values_dict(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if node.value is None or not isinstance(node.target, ast.Name):
            return
        safe = {
            kind: self._is_safe(node.value, kind) for kind in ("read", "write")
        }
        self._bind_target(node.target, safe)
        if (
            isinstance(node.value, ast.Dict)
            and node.target.id in self.returned_dicts
        ):
            self._check_values_dict(node.value)

    def visit_For(self, node: ast.For) -> None:
        safe = {
            kind: self._is_safe(node.iter, kind) for kind in ("read", "write")
        }
        self._bind_target(node.target, safe)
        if (
            isinstance(node.iter, ast.Name)
            and node.iter.id == self.store
        ):
            self._report(
                node.iter,
                "read",
                "iterating the whole store reads every object id",
            )
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        safe = {
            kind: self._is_safe(node.iter, kind) for kind in ("read", "write")
        }
        self._bind_target(node.target, safe)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == self.store
        ):
            if func.attr in _READ_METHODS and node.args:
                if not self._is_safe(node.args[0], "read"):
                    self._report(
                        node,
                        "read",
                        f"store.{func.attr}(...) with an id not provably in "
                        "the declared read set",
                    )
            elif func.attr in _WRITE_METHODS and node.args:
                if not self._is_safe(node.args[0], "write"):
                    self._report(
                        node,
                        "write",
                        f"store.{func.attr}(...) with ids not provably in "
                        "the declared write set",
                    )
            elif func.attr == "put" and node.args:
                self._report(
                    node,
                    "write",
                    "store.put(...) installs an object the analysis cannot "
                    "tie to the declared write set",
                )
            elif func.attr in ("objects", "ids"):
                self._report(
                    node,
                    "read",
                    f"store.{func.attr}() touches every object id",
                )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        # ``oid in store`` branches on presence: a read of the id.
        for op, comparator in zip(node.ops, node.comparators):
            if (
                isinstance(op, (ast.In, ast.NotIn))
                and isinstance(comparator, ast.Name)
                and comparator.id == self.store
            ):
                if not self._is_safe(node.left, "read"):
                    self._report(
                        node,
                        "read",
                        "membership test on an id not provably in the "
                        "declared read set",
                    )
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if isinstance(node.value, ast.Dict):
            self._check_values_dict(node.value)
        self.generic_visit(node)

    def _check_values_dict(self, node: ast.Dict) -> None:
        """Keys of a compute()-style values dict are written object ids."""
        if self.method != "compute":
            return
        for key in node.keys:
            if key is None:
                continue  # **expansion; covered by its own source
            if not self._is_safe(key, "write"):
                self._report(
                    key,
                    "write",
                    "computed values keyed by an id not provably in the "
                    "declared write set",
                )


def _store_param(method: ast.FunctionDef) -> Optional[str]:
    """The parameter that carries the store, if the method takes one."""
    for arg in [*method.args.args, *method.args.kwonlyargs]:
        if arg.arg == "self":
            continue
        if arg.arg == "store":
            return arg.arg
        annotation = arg.annotation
        if annotation is not None:
            text = ast.unparse(annotation) if hasattr(ast, "unparse") else ""
            if "ObjectStore" in text or "Store" in text:
                return arg.arg
    return None


def _discover_action_classes(
    trees: Dict[Path, ast.Module]
) -> List[Tuple[Path, ast.ClassDef, Optional[str]]]:
    """Fixpoint discovery of Action subclasses across the file set.

    Returns ``(path, classdef, base_name)`` triples, where ``base_name``
    is the direct base that made the class an action (used to inherit
    contracts for subclasses without their own ``__init__``).
    """
    known: Set[str] = set(_ACTION_BASES)
    classes: Dict[str, Tuple[Path, ast.ClassDef, Optional[str]]] = {}
    changed = True
    while changed:
        changed = False
        for path, tree in trees.items():
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef) or node.name in known:
                    continue
                for base in node.bases:
                    base_name = (
                        base.id
                        if isinstance(base, ast.Name)
                        else base.attr
                        if isinstance(base, ast.Attribute)
                        else None
                    )
                    if base_name in known:
                        known.add(node.name)
                        classes[node.name] = (path, node, base_name)
                        changed = True
                        break
    return list(classes.values())


def check_paths(
    paths: Iterable[Path], *, root: Optional[Path] = None
) -> List[RWSetEscape]:
    """Run the escape analysis over every Action subclass in ``paths``."""
    files = iter_python_files([Path(p) for p in paths])
    sources = {path: path.read_text() for path in files}
    trees = {
        path: ast.parse(source, filename=str(path))
        for path, source in sources.items()
    }
    discovered = _discover_action_classes(trees)
    contracts: Dict[str, ClassContract] = {}

    # Two passes so a subclass can inherit a base's contract regardless
    # of file order.
    for path, cls, base in discovered:
        contracts[cls.name] = _analyze_init(cls, None)
    for path, cls, base in discovered:
        if base in contracts:
            contracts[cls.name] = _analyze_init(cls, contracts[base])

    escapes: List[RWSetEscape] = []
    for path, cls, base in discovered:
        display = display_path(path, root)
        allowed = _suppressions(sources[path])
        lines = sources[path].splitlines()
        for node in cls.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            store = _store_param(node)
            if store is None:
                continue
            checker = _MethodChecker(
                display, cls.name, node, contracts[cls.name], store, allowed, lines
            )
            checker.visit(node)
            escapes.extend(checker.escapes)
    return sorted(escapes, key=lambda e: (e.path, e.line))
