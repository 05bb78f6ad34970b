"""The whole-program model: modules, imports, classes, functions.

:class:`Project` parses every file once and resolves the repo's import
graph into a symbol table the call-graph builder and the rule plugins
share. Resolution is deliberately *heuristic but conservative*: a name
that cannot be pinned to a project symbol resolves to nothing, so the
downstream rules err toward silence rather than noise.

Everything here is written with explicit worklists — the analyzer is
itself subject to the repo's no-recursion rules (REPRO004/REPRO007),
and it had better pass its own gate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

from repro.verify.cache import AnalysisCache
from repro.verify.config import SourceFile, load_sources


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  #: e.g. ``repro.core.manager.SmaltaManager.apply``
    module: str
    cls: Optional[str]  #: enclosing class qualname, None for module level
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: Path
    #: Decorator names as written (dotted tails collapsed to the last part).
    decorators: tuple[str, ...] = ()
    #: True when the body contains a ``yield`` (the def is a generator).
    is_generator: bool = False

    @property
    def lineno(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class definition with its directly declared methods."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    path: Path
    #: Base-class qualnames that resolved to project classes.
    bases: tuple[str, ...] = ()
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` types inferred from ``__init__``/class-body
    #: assignments, as project-class qualnames.
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str
    path: Path
    tree: ast.Module
    source_lines: list[str]
    #: Local name -> fully qualified imported target.
    imports: dict[str, str] = field(default_factory=dict)


def _decorator_name(node: ast.expr) -> Optional[str]:
    """The trailing identifier of a decorator expression, if any."""
    target = node
    if isinstance(target, ast.Call):
        target = target.func
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return None


def _contains_yield(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True when the function body itself yields (nested defs excluded)."""
    stack: list[ast.AST] = list(node.body)
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(current))
    return False


def annotation_name(annotation: Optional[ast.expr]) -> Optional[str]:
    """The plain class name an annotation resolves to, unwrapping
    ``Optional[X]``, ``X | None``, and string annotations."""
    while annotation is not None:
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
            continue
        if isinstance(annotation, ast.Name):
            return annotation.id
        if isinstance(annotation, ast.Attribute):
            return annotation.attr
        if isinstance(annotation, ast.Subscript):
            base = annotation.value
            if (isinstance(base, ast.Name) and base.id == "Optional") or (
                isinstance(base, ast.Attribute) and base.attr == "Optional"
            ):
                annotation = annotation.slice
                continue
            return None
        if isinstance(annotation, ast.BinOp) and isinstance(
            annotation.op, ast.BitOr
        ):
            left = annotation.left
            if isinstance(left, ast.Constant) and left.value is None:
                annotation = annotation.right
            else:
                annotation = left
            continue
        return None
    return None


class Project:
    """Parsed modules plus the cross-module symbol table."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: Class *basename* -> qualnames (for resolving bare annotations).
        self.class_names: dict[str, list[str]] = {}

    # -- construction ----------------------------------------------------

    @classmethod
    def load(
        cls,
        paths: Sequence[Path],
        sources: Optional[Sequence[SourceFile]] = None,
        cache: Optional[AnalysisCache] = None,
    ) -> "Project":
        """Build the symbol table from every file under ``paths``.

        ``sources`` (from :func:`repro.verify.config.load_sources`)
        lets a run share one parse pass across every rule; otherwise
        the files are loaded here, optionally through the content-hash
        ``cache``.
        """
        project = cls()
        if sources is None:
            sources = load_sources(paths, cache)
        for source in sources:
            module = ModuleInfo(source.name, source.path, source.tree, source.lines)
            project.modules[module.name] = module
        for module in project.modules.values():
            project._index_module(module)
        for module in project.modules.values():
            project._resolve_bases(module)
        for info in project.classes.values():
            project._infer_attr_types(info)
        return project

    def _index_module(self, module: ModuleInfo) -> None:
        """Collect imports, classes, and functions of one module."""
        for node in module.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    module.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(module.name, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.imports[local] = f"{base}.{alias.name}"
        # Walk definitions iteratively, tracking the enclosing class.
        stack: list[tuple[ast.AST, Optional[str]]] = [
            (node, None) for node in reversed(module.tree.body)
        ]
        while stack:
            node, cls_qual = stack.pop()
            if isinstance(node, ast.ClassDef):
                qual = f"{module.name}.{node.name}"
                info = ClassInfo(qual, module.name, node.name, node, module.path)
                self.classes[qual] = info
                self.class_names.setdefault(node.name, []).append(qual)
                stack.extend((item, qual) for item in reversed(node.body))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = f"{cls_qual}." if cls_qual else f"{module.name}."
                info = self.functions.setdefault(
                    f"{owner}{node.name}",
                    FunctionInfo(
                        qualname=f"{owner}{node.name}",
                        module=module.name,
                        cls=cls_qual,
                        name=node.name,
                        node=node,
                        path=module.path,
                        decorators=tuple(
                            name
                            for name in (
                                _decorator_name(d) for d in node.decorator_list
                            )
                            if name is not None
                        ),
                        is_generator=_contains_yield(node),
                    ),
                )
                if cls_qual is not None and cls_qual in self.classes:
                    self.classes[cls_qual].methods[node.name] = info
                # Nested defs are not indexed as public symbols.

    @staticmethod
    def _import_base(module: str, node: ast.ImportFrom) -> Optional[str]:
        """The absolute package an ``ImportFrom`` pulls names out of."""
        if node.level == 0:
            return node.module
        parts = module.split(".")
        if node.level > len(parts):
            return None
        base_parts = parts[: len(parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts) if base_parts else None

    def _resolve_bases(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            qual = f"{module.name}.{node.name}"
            info = self.classes.get(qual)
            if info is None:
                continue
            bases: list[str] = []
            for base in node.bases:
                name = annotation_name(base)
                if name is None:
                    continue
                resolved = self.resolve_class_name(module, name)
                if resolved is not None:
                    bases.append(resolved)
            info.bases = tuple(bases)

    def _infer_attr_types(self, info: ClassInfo) -> None:
        """Infer ``self.<attr>`` project-class types from ``__init__``."""
        module = self.modules[info.module]
        init = info.methods.get("__init__")
        bodies: list[list[ast.stmt]] = []
        if init is not None:
            bodies.append(list(init.node.body))
        bodies.append(list(info.node.body))
        for body in bodies:
            for stmt in body:
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                annotation: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, value = stmt.target, stmt.value
                    annotation = stmt.annotation
                if (
                    not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                resolved = self._value_class(module, value, annotation)
                if resolved is not None:
                    info.attr_types.setdefault(target.attr, resolved)

    def _value_class(
        self,
        module: ModuleInfo,
        value: Optional[ast.expr],
        annotation: Optional[ast.expr],
    ) -> Optional[str]:
        """The project class an assigned value or annotation denotes."""
        if isinstance(value, ast.Call):
            name = annotation_name(value.func)
            if name is not None:
                resolved = self.resolve_class_name(module, name)
                if resolved is not None:
                    return resolved
        if annotation is not None:
            name = annotation_name(annotation)
            if name is not None:
                return self.resolve_class_name(module, name)
        return None

    # -- lookups ---------------------------------------------------------

    def resolve_class_name(
        self, module: ModuleInfo, name: str
    ) -> Optional[str]:
        """A bare class name in ``module`` -> project-class qualname."""
        imported = module.imports.get(name)
        if imported is not None and imported in self.classes:
            return imported
        local = f"{module.name}.{name}"
        if local in self.classes:
            return local
        candidates = self.class_names.get(name, ())
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_method(
        self, cls_qual: str, method: str
    ) -> Optional[FunctionInfo]:
        """Resolve ``method`` on ``cls_qual`` walking project base classes."""
        seen: set[str] = set()
        worklist = [cls_qual]
        while worklist:
            current = worklist.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            found = info.methods.get(method)
            if found is not None:
                return found
            worklist.extend(info.bases)
        return None

    def iter_functions(self) -> Iterator[FunctionInfo]:
        return iter(self.functions.values())
