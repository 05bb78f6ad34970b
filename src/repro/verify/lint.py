"""Repo-specific per-file checks for the SMALTA codebase (REPRO001-003,
REPRO005 and REPRO006).

One AST visitor pass per file enforces the structural rules that keep
the hot paths safe to refactor aggressively:

- **REPRO001** ``missing-slots`` — trie/FIB node classes (name ending in
  ``Node``) must declare ``__slots__``; a stray ``__dict__`` per node
  multiplies resident memory on million-entry tables.
- **REPRO002** ``trie-write-outside-core`` — only ``repro/core`` may
  assign the trie bookkeeping attributes (``d_o``, ``d_a``, ``pi``,
  ``deaggs``); everything else must go through the ``FibTrie`` API so
  the AT observer and the reverse deaggregate index stay consistent.
- **REPRO003** ``wall-clock-call`` — no ``time.time()`` /
  ``datetime.now()``-style reads in library code; clocks are injected
  (see ``SmaltaManager(clock=...)``) so experiments replay
  deterministically.
- **REPRO005** ``untyped-public`` — public functions and methods in the
  packages of :data:`repro.verify.config.ANNOTATED_PACKAGES` (``core``,
  ``net``, ``verify``, ``fib``, ``router``, ``bgp``, ``workloads``,
  ``obs`` and ``faults``) must annotate every parameter and the return
  type (the ``mypy --strict`` floor).
- **REPRO006** ``falsy-len-guard`` — no truthiness tests on parameters
  whose annotated type defines ``__len__`` (e.g. ``DownloadLog``): an
  empty-but-present object is falsy, so ``log or DownloadLog()``
  silently drops a caller-supplied log. Test ``is not None`` or
  ``len(...)`` explicitly.

The rules run through the analyzer's one command line,
``python -m repro.verify``; this module is the visitor behind them.
A finding is waived with a ``# noqa: REPROnnn`` comment on the
offending line (see :mod:`repro.verify.findings`).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.verify.cache import AnalysisCache, content_key
from repro.verify.config import ANNOTATED_PACKAGES, SourceFile, package_parts
from repro.verify.findings import Finding, relativize
from repro.verify.flow.project import ModuleInfo, annotation_name

#: The SmaltaState bookkeeping only repro/core may mutate directly.
TRIE_ATTRS = frozenset({"d_o", "d_a", "pi", "deaggs"})

#: Calls that read the wall clock, as (qualifier, attribute) pairs.
WALL_CLOCK = frozenset(
    {
        ("time", "time"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)


def collect_len_classes(modules: Iterable[ModuleInfo]) -> set[str]:
    """Names of classes (anywhere in the scanned set) defining ``__len__``."""
    names: set[str] = set()
    for module in modules:
        for node in module.all_nodes:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "__len__"
                for item in node.body
            ):
                names.add(node.name)
    return names


class _FileLinter(ast.NodeVisitor):
    """One pass over one module; accumulates ``findings``.

    Every finding carries the file's repo-relative ``rel`` path and its
    module name as the symbol.
    """

    def __init__(
        self, source: SourceFile, rel: str, len_classes: set[str]
    ) -> None:
        self.rel = rel
        self.module = source.name
        self.len_classes = len_classes
        self.findings: list[Finding] = []
        parts = package_parts(source.path)
        self.in_core = bool(parts) and parts[0] == "core"
        self.needs_annotations = bool(parts) and parts[0] in ANNOTATED_PACKAGES
        #: How many defs enclose the visitor (nested helpers are not
        #: public API, for REPRO005).
        self.func_depth = 0
        #: Enclosing class names (for REPRO005 privacy).
        self.class_stack: list[str] = []
        #: Per-function map of parameter name -> __len__-bearing class.
        self.len_params: list[dict[str, str]] = []

    # -- helpers --------------------------------------------------------

    def report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(code, self.rel, getattr(node, "lineno", 0), self.module, message)
        )

    # -- REPRO001: __slots__ on node classes ----------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name.endswith("Node"):
            has_slots = any(
                (
                    isinstance(item, ast.Assign)
                    and any(
                        isinstance(target, ast.Name) and target.id == "__slots__"
                        for target in item.targets
                    )
                )
                or (
                    isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and item.target.id == "__slots__"
                )
                for item in node.body
            )
            if not has_slots:
                self.report(
                    node,
                    "REPRO001",
                    f"node class {node.name} must declare __slots__",
                )
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    # -- REPRO002: bookkeeping writes confined to core ------------------

    def _check_attr_write(self, target: ast.expr) -> None:
        if (
            not self.in_core
            and isinstance(target, ast.Attribute)
            and target.attr in TRIE_ATTRS
        ):
            self.report(
                target,
                "REPRO002",
                f"write to trie attribute .{target.attr} outside repro/core "
                "(use the FibTrie API)",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_attr_write(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_attr_write(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_attr_write(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_attr_write(target)
        self.generic_visit(node)

    # -- REPRO003: wall-clock calls ------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            qualifier = func.value
            qual_name = None
            if isinstance(qualifier, ast.Name):
                qual_name = qualifier.id
            elif isinstance(qualifier, ast.Attribute):
                qual_name = qualifier.attr
            if qual_name is not None and (qual_name, func.attr) in WALL_CLOCK:
                self.report(
                    node,
                    "REPRO003",
                    f"{qual_name}.{func.attr}() reads the wall clock; "
                    "inject a clock callable instead",
                )
        self.generic_visit(node)

    # -- REPRO005 + REPRO006 setup: function definitions ----------------

    def _is_public(self, node: ast.FunctionDef) -> bool:
        if node.name.startswith("_"):
            return False
        if any(name.startswith("_") for name in self.class_stack):
            return False
        return self.func_depth == 0

    def _check_annotations(self, node: ast.FunctionDef) -> None:
        args = node.args
        positional = args.posonlyargs + args.args
        for index, arg in enumerate(positional):
            if index == 0 and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                self.report(
                    node,
                    "REPRO005",
                    f"parameter {arg.arg!r} of public function "
                    f"{node.name} lacks a type annotation",
                )
        for arg in args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]:
            if arg.annotation is None:
                self.report(
                    node,
                    "REPRO005",
                    f"parameter {arg.arg!r} of public function "
                    f"{node.name} lacks a type annotation",
                )
        if node.returns is None:
            self.report(
                node,
                "REPRO005",
                f"public function {node.name} lacks a return annotation",
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self.needs_annotations and self._is_public(node):
            self._check_annotations(node)
        tracked: dict[str, str] = {}
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            cls = annotation_name(arg.annotation)
            if cls is not None and cls in self.len_classes:
                tracked[arg.arg] = cls
        self.func_depth += 1
        self.len_params.append(tracked)
        self.generic_visit(node)
        self.len_params.pop()
        self.func_depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- REPRO006: truthiness on __len__-bearing parameters -------------

    def _check_truthiness(self, test: ast.expr) -> None:
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            test = test.operand
        if not isinstance(test, ast.Name) or not self.len_params:
            return
        cls = self.len_params[-1].get(test.id)
        if cls is not None:
            self.report(
                test,
                "REPRO006",
                f"{test.id!r} is a {cls} (defines __len__): an empty one "
                "is falsy; test `is not None` or len() explicitly",
            )

    def visit_If(self, node: ast.If) -> None:
        self._check_truthiness(node.test)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._check_truthiness(node.test)
        self.generic_visit(node)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        self._check_truthiness(node.test)
        self.generic_visit(node)

    def visit_Assert(self, node: ast.Assert) -> None:
        self._check_truthiness(node.test)
        self.generic_visit(node)

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        for value in node.values:
            self._check_truthiness(value)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        for test in node.ifs:
            self._check_truthiness(test)
        self.generic_visit(node)


def lint_sources(
    sources: Sequence[SourceFile],
    root: Optional[Path],
    len_classes: set[str],
    cache: Optional[AnalysisCache] = None,
) -> list[Finding]:
    """Every lint finding in ``sources``, before inline suppressions.

    Paths are reported relative to ``root``; ``len_classes`` is the
    repo-wide set of ``__len__``-bearing class names REPRO006 depends on
    (:func:`collect_len_classes`). A ``cache`` reuses per-file findings
    across runs: the key covers the file content, its path, its module
    name, and ``len_classes``, so any input that could change a finding
    also changes the key.
    """
    len_digest = content_key(",".join(sorted(len_classes)))
    findings: list[Finding] = []
    for source in sources:
        rel = relativize(source.path, root)
        raw: Optional[list[Finding]] = None
        key = ""
        if cache is not None:
            key = content_key(
                source.text, "lint", str(source.path), rel, source.name, len_digest
            )
            cached = cache.load("lint", key)
            if isinstance(cached, list):
                raw = cached
        if raw is None:
            linter = _FileLinter(source, rel, len_classes)
            linter.visit(source.tree)
            raw = linter.findings
            if cache is not None:
                cache.store("lint", key, raw)
        findings.extend(raw)
    return findings


if __name__ == "__main__":
    print(
        "repro.verify.lint is not a command; run: python -m repro.verify",
        file=sys.stderr,
    )
    raise SystemExit(2)
