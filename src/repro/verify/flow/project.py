"""The whole-program model: modules, imports, classes, functions, scopes.

:class:`Project` parses every file once and resolves the repo's import
graph into a symbol table the call-graph builder and the rule plugins
share. Resolution is deliberately *heuristic but conservative*: a name
that cannot be pinned to a project symbol resolves to nothing, so the
downstream rules err toward silence rather than noise.

Every module top level and every indexed function is one
:class:`Scope`, walked once: its node list (:func:`walk_scope`) and its
type environment are built at load time, and every rule reads them.

Everything here is written with explicit worklists — the analyzer is
itself subject to the repo's no-recursion rule (REPRO007), and it had
better pass its own gate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
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
    #: The body's scope, set by :meth:`Project.load`.
    scope: Scope = field(init=False, repr=False)

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
    #: The top level's scope, set by :meth:`Project.load`.
    scope: Scope = field(init=False, repr=False)

    @cached_property
    def all_nodes(self) -> list[ast.AST]:
        """Every node of the file, nested scopes included: one walk,
        shared by the whole-file checks (``__len__`` classes, metric
        registrations)."""
        return list(ast.walk(self.tree))


@dataclass
class Scope:
    """One analyzable statement list: a module top level or an indexed
    function body, with what every rule reads about it."""

    symbol: str
    module: ModuleInfo
    body: list[ast.stmt]
    args: Optional[ast.arguments]
    path: Path
    #: :func:`walk_scope` of the body.
    nodes: list[ast.AST]
    #: Local name -> project-class qualname (see :meth:`Project._scope`).
    env: dict[str, str]


def walk_scope(body: Sequence[ast.stmt]) -> list[ast.AST]:
    """Every node under ``body`` without descending into nested defs.

    Class bodies, nested functions, and lambdas are *scopes of their
    own* — their statements must not be attributed to the enclosing
    scope by the per-scope rules. The top-level def/lambda nodes
    themselves are included (so their decorators are visible); only
    their bodies are skipped.
    """
    result: list[ast.AST] = []
    stack: list[ast.AST] = list(reversed(list(body)))
    while stack:
        node = stack.pop()
        result.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(reversed(node.decorator_list))
            continue
        if isinstance(node, ast.Lambda):
            continue
        stack.extend(reversed(list(ast.iter_child_nodes(node))))
    return result


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


def local_names(
    nodes: Sequence[ast.AST], args: Optional[ast.arguments]
) -> tuple[frozenset[str], frozenset[str]]:
    """``(local names, global-declared names)`` of one scope's nodes.

    Locals are the parameters, assignment and deletion targets, nested
    def and class names, and imports; the names declared ``global`` are
    not locals.
    """
    declared_global: set[str] = set()
    local: set[str] = set()
    if args is not None:
        for arg in (
            args.posonlyargs
            + args.args
            + args.kwonlyargs
            + [a for a in (args.vararg, args.kwarg) if a is not None]
        ):
            local.add(arg.arg)
    for node in nodes:
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            local.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            local.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    local.add(alias.asname or alias.name.split(".")[0])
    return frozenset(local - declared_global), frozenset(declared_global)


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
        for info in project.classes.values():
            project._resolve_bases(info)
        for info in project.classes.values():
            project._infer_attr_types(info)
        for module in project.modules.values():
            module.scope = project._scope(
                module.name, module, None, module.tree.body, None
            )
        for func in project.functions.values():
            module = project.modules[func.module]
            func.scope = project._scope(
                func.qualname, module, func.cls, func.node.body, func.node.args
            )
            func.is_generator = any(
                isinstance(node, (ast.Yield, ast.YieldFrom))
                for node in func.scope.nodes
            )
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

    def _resolve_bases(self, info: ClassInfo) -> None:
        module = self.modules[info.module]
        bases: list[str] = []
        for base in info.node.bases:
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
        env: Optional[dict[str, str]] = None,
    ) -> Optional[str]:
        """The project class an assigned value or annotation denotes;
        ``env`` also resolves aliases of typed attributes
        (``trie = self.trie``)."""
        if isinstance(value, ast.Call):
            name = annotation_name(value.func)
            if name is not None:
                resolved = self.resolve_class_name(module, name)
                if resolved is not None:
                    return resolved
        if (
            env is not None
            and isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
        ):
            owner = env.get(value.value.id)
            if owner is not None:
                attr_cls = self.attr_class(owner, value.attr)
                if attr_cls is not None:
                    return attr_cls
        if annotation is not None:
            name = annotation_name(annotation)
            if name is not None:
                return self.resolve_class_name(module, name)
        return None

    def _scope(
        self,
        symbol: str,
        module: ModuleInfo,
        cls_qual: Optional[str],
        body: list[ast.stmt],
        args: Optional[ast.arguments],
    ) -> Scope:
        """Walk one body once and build its type environment.

        The environment maps local names to project-class qualnames,
        flow-insensitively: ``self`` is the enclosing class, then
        annotated parameters, then assignments from constructor calls,
        annotations, or typed attributes. First binding wins; a later
        re-assignment to an unknown type does not untrack the name
        (acceptable for the heuristic rules, which all err toward
        silence on ambiguity).
        """
        nodes = walk_scope(body)
        env: dict[str, str] = {}
        if cls_qual is not None:
            env["self"] = cls_qual
        if args is not None:
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                resolved = self._value_class(module, None, arg.annotation)
                if resolved is not None:
                    env.setdefault(arg.arg, resolved)
        for node in nodes:
            annotation: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value, annotation = node.target, node.value, node.annotation
            else:
                continue
            if not isinstance(target, ast.Name):
                continue
            resolved = self._value_class(module, value, annotation, env)
            if resolved is not None:
                env.setdefault(target.id, resolved)
        return Scope(symbol, module, list(body), args, module.path, nodes, env)

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

    def attr_class(self, cls_qual: str, attr: str) -> Optional[str]:
        """The inferred class of ``<cls_qual instance>.<attr>``, MRO-aware."""
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
            found = info.attr_types.get(attr)
            if found is not None:
                return found
            worklist.extend(info.bases)
        return None

    def iter_functions(self) -> Iterator[FunctionInfo]:
        return iter(self.functions.values())

    def iter_scopes(self) -> Iterator[Scope]:
        """Every module top level, then every indexed function, in name
        order."""
        for name in sorted(self.modules):
            yield self.modules[name].scope
        for qualname in sorted(self.functions):
            yield self.functions[qualname].scope
