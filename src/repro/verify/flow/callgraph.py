"""Repo-wide call graph with heuristic method resolution.

Resolution works from each scope's *type environment*
(:class:`~repro.verify.flow.project.Scope`): parameter annotations,
constructor assignments (``x = SmaltaState(...)``), ``self`` bound to
the enclosing class, and aliases of typed ``self`` attributes
(``trie = self.trie``). A call that cannot be pinned to a project
function produces no edge — the graph under-approximates, so the
recursion rule (REPRO007) only reports cycles it can actually name.

The builder also computes a transitive *self-mutator* summary (which
methods mutate their receiver, directly or via ``self`` calls); rule
REPRO009 uses it to recognise trie mutation hidden behind helpers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from repro.verify.flow.project import FunctionInfo, ModuleInfo, Project


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, with enough context for the rules."""

    caller: str
    callee: str
    lineno: int
    via_self: bool  #: the receiver expression was literally ``self``


def receiver_class(
    project: Project, env: dict[str, str], expr: ast.expr
) -> Optional[str]:
    """The project class of a call receiver expression, if inferable."""
    if isinstance(expr, ast.Name):
        return env.get(expr.id)
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        owner = env.get(expr.value.id)
        if owner is not None:
            return project.attr_class(owner, expr.attr)
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

    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        """Resolve every call in every project function into edges."""
        graph = cls(project)
        for func in project.iter_functions():
            scope = func.scope
            for node in scope.nodes:
                if not isinstance(node, ast.Call):
                    continue
                callee = resolve_call(project, scope.module, scope.env, node)
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
            if _writes_self_attr(func.scope.nodes):
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


def _writes_self_attr(nodes: Sequence[ast.AST]) -> bool:
    """True when any node of a scope writes through a ``self`` attribute."""
    for node in nodes:
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
