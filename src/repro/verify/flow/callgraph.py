"""Repo-wide call graph with heuristic method resolution.

Resolution works from a per-scope *type environment*: parameter
annotations, constructor assignments (``x = SmaltaState(...)``),
``self`` bound to the enclosing class, and aliases of typed ``self``
attributes (``trie = self.trie``). A call that cannot be pinned to a
project function produces no edge — the graph under-approximates, so
the recursion rule (REPRO007) only reports cycles it can actually
name.

The builder also computes a transitive *self-mutator* summary (which
methods mutate their receiver, directly or via ``self`` calls); rule
REPRO009 uses it to recognise trie mutation hidden behind helpers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from repro.verify.flow.project import (
    FunctionInfo,
    ModuleInfo,
    Project,
    annotation_name,
)


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, with enough context for the rules."""

    caller: str
    callee: str
    lineno: int
    via_self: bool  #: the receiver expression was literally ``self``


def walk_scope(body: Sequence[ast.stmt]) -> list[ast.AST]:
    """Every node under ``body`` without descending into nested defs.

    Class bodies, nested functions, and lambdas are *scopes of their
    own* — their statements must not be attributed to the enclosing
    scope by the per-scope rules. The top-level def/lambda nodes
    themselves are included (so decorators and defaults are visible);
    only their bodies are skipped.
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


def build_type_env(
    project: Project,
    module: ModuleInfo,
    body: Sequence[ast.stmt],
    cls_qual: Optional[str] = None,
    args: Optional[ast.arguments] = None,
) -> dict[str, str]:
    """Local name -> project-class qualname, flow-insensitively.

    First binding wins; a later re-assignment to an unknown type does
    not untrack the name (acceptable for the heuristic rules, which all
    err toward silence on ambiguity).
    """
    env: dict[str, str] = {}
    if cls_qual is not None:
        env["self"] = cls_qual
    if args is not None:
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            name = annotation_name(arg.annotation)
            if name is None:
                continue
            resolved = project.resolve_class_name(module, name)
            if resolved is not None:
                env.setdefault(arg.arg, resolved)
    for node in walk_scope(body):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        annotation: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value, annotation = node.target, node.value, node.annotation
        else:
            continue
        if not isinstance(target, ast.Name):
            continue
        resolved = _rhs_class(project, module, env, value, annotation)
        if resolved is not None:
            env.setdefault(target.id, resolved)
    return env


def _rhs_class(
    project: Project,
    module: ModuleInfo,
    env: dict[str, str],
    value: Optional[ast.expr],
    annotation: Optional[ast.expr],
) -> Optional[str]:
    """The project class a right-hand side (or annotation) denotes."""
    if isinstance(value, ast.Call):
        name = annotation_name(value.func)
        if name is not None:
            resolved = project.resolve_class_name(module, name)
            if resolved is not None:
                return resolved
    if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
        owner = env.get(value.value.id)
        if owner is not None:
            attr_cls = attr_class(project, owner, value.attr)
            if attr_cls is not None:
                return attr_cls
    if annotation is not None:
        name = annotation_name(annotation)
        if name is not None:
            return project.resolve_class_name(module, name)
    return None


def attr_class(project: Project, cls_qual: str, attr: str) -> Optional[str]:
    """The inferred class of ``<cls_qual instance>.<attr>``, MRO-aware."""
    seen: set[str] = set()
    worklist = [cls_qual]
    while worklist:
        current = worklist.pop(0)
        if current in seen:
            continue
        seen.add(current)
        info = project.classes.get(current)
        if info is None:
            continue
        found = info.attr_types.get(attr)
        if found is not None:
            return found
        worklist.extend(info.bases)
    return None


def receiver_class(
    project: Project, env: dict[str, str], expr: ast.expr
) -> Optional[str]:
    """The project class of a call receiver expression, if inferable."""
    if isinstance(expr, ast.Name):
        return env.get(expr.id)
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        owner = env.get(expr.value.id)
        if owner is not None:
            return attr_class(project, owner, expr.attr)
    return None


def resolve_call(
    project: Project,
    module: ModuleInfo,
    env: dict[str, str],
    call: ast.Call,
) -> Optional[FunctionInfo]:
    """The project function a call expression targets, or None."""
    func = call.func
    if isinstance(func, ast.Name):
        imported = module.imports.get(func.id)
        if imported is not None:
            if imported in project.functions:
                return project.functions[imported]
            if imported in project.classes:
                return project.resolve_method(imported, "__init__")
        local = f"{module.name}.{func.id}"
        if local in project.functions:
            return project.functions[local]
        if local in project.classes:
            return project.resolve_method(local, "__init__")
        return None
    if isinstance(func, ast.Attribute):
        cls_qual = receiver_class(project, env, func.value)
        if cls_qual is not None:
            return project.resolve_method(cls_qual, func.attr)
        if isinstance(func.value, ast.Name):
            target_module = module.imports.get(func.value.id)
            if target_module is not None:
                candidate = f"{target_module}.{func.attr}"
                if candidate in project.functions:
                    return project.functions[candidate]
                if candidate in project.classes:
                    return project.resolve_method(candidate, "__init__")
    return None


class CallGraph:
    """Edges between project functions plus derived summaries."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.edges: dict[str, set[str]] = {}
        self.sites: list[CallSite] = []
        self.self_mutators: frozenset[str] = frozenset()
        self.envs: dict[str, dict[str, str]] = {}

    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        """Resolve every call in every project function into edges."""
        graph = cls(project)
        for func in project.iter_functions():
            module = project.modules[func.module]
            env = build_type_env(
                project, module, func.node.body, func.cls, func.node.args
            )
            graph.envs[func.qualname] = env
            for node in walk_scope(func.node.body):
                if not isinstance(node, ast.Call):
                    continue
                callee = resolve_call(project, module, env, node)
                if callee is None:
                    continue
                via_self = (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                )
                graph.edges.setdefault(func.qualname, set()).add(callee.qualname)
                graph.sites.append(
                    CallSite(func.qualname, callee.qualname, node.lineno, via_self)
                )
        graph.self_mutators = graph._compute_self_mutators()
        return graph

    def _compute_self_mutators(self) -> frozenset[str]:
        """Methods that (transitively) write ``self`` attributes."""
        mutators: set[str] = set()
        for func in self.project.iter_functions():
            if func.cls is None:
                continue
            if _writes_self_attr(func.node.body):
                mutators.add(func.qualname)
        # Propagate through self-calls to a fixpoint.
        self_callers: dict[str, set[str]] = {}
        for site in self.sites:
            if site.via_self:
                self_callers.setdefault(site.callee, set()).add(site.caller)
        worklist = list(mutators)
        while worklist:
            callee = worklist.pop()
            for caller in self_callers.get(callee, ()):
                if caller not in mutators:
                    mutators.add(caller)
                    worklist.append(caller)
        return frozenset(mutators)

    def cycles(self) -> list[list[str]]:
        """Strongly connected components with >1 node, plus self-loops.

        Each component is returned sorted, and the component list is
        sorted by its first member for stable output.
        """
        components = [
            component
            for component in tarjan_sccs(self.edges, self.edges)
            if len(component) > 1
            or component[0] in self.edges.get(component[0], set())
        ]
        components.sort(key=lambda comp: comp[0])
        return components


def tarjan_sccs(
    nodes: Iterable[str], edges: Mapping[str, Iterable[str]]
) -> list[list[str]]:
    """SCCs of ``(nodes, edges)`` in reverse topological order.

    Iterative Tarjan (the analyzer obeys the repo's own no-recursion
    rules); roots and successors are visited in sorted order, and each
    component is returned sorted. Emission order means every SCC
    appears after all SCCs it calls into, i.e. callees first — the
    bottom-up order a summary-based analysis needs.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    scc_stack: list[str] = []
    counter = 0
    components: list[list[str]] = []
    roots = sorted(nodes)
    succs = {node: sorted(edges.get(node, ())) for node in roots}
    for root in roots:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = low[node] = counter
                counter += 1
                scc_stack.append(node)
                on_stack.add(node)
            descended = False
            children = succs.get(node, [])
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in index:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    descended = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: list[str] = []
                while True:
                    member = scc_stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
    return components


#: Methods whose *call* mutates the receiver container in place — a
#: write that never appears as an assignment statement. Shared by the
#: self-mutator summary here, the effect extractor, and the interleave
#: models.
MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "add",
        "update",
        "remove",
        "discard",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "setdefault",
        "sort",
    }
)


def _writes_self_attr(body: Sequence[ast.stmt]) -> bool:
    """True when any statement assigns through a ``self`` attribute."""
    for node in walk_scope(body):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and isinstance(node.func.value, (ast.Attribute, ast.Subscript))
        ):
            base: ast.expr = node.func.value
            while isinstance(base, (ast.Attribute, ast.Subscript)):
                base = base.value
            if isinstance(base, ast.Name) and base.id == "self":
                return True
        for target in targets:
            base = target
            while isinstance(base, (ast.Attribute, ast.Subscript)):
                base = base.value
                if (
                    isinstance(base, ast.Name)
                    and base.id == "self"
                    and base is not target
                ):
                    return True
    return False
