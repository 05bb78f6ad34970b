"""Bottom-up interprocedural effect inference.

:func:`infer_effects` extracts the direct effect sites of every
function (and module top level), then propagates them over the call
graph: a function's *summary* is the union of its own sites and its
resolved callees' summaries. Propagation runs over the strongly
connected components of the graph in reverse topological order —
the call graph's iterative Tarjan
(:func:`repro.verify.flow.callgraph.tarjan_sccs`) emits SCCs
callee-first, which is exactly the bottom-up order a summary-based
analysis needs — and every member of a cycle shares the whole
cycle's effects (a recursive helper that sleeps makes every function
in its SCC blocking).

Each summary entry remembers *one* witness call chain to the origin
site, so rule messages can say not just "snapshot reaches IO" but
through which helpers. Chains are shortest-first best-effort, for
humans, not proofs.

Per-file direct extraction is cached content-hashed (see
:mod:`repro.verify.cache`): the key folds in the module name and a
digest of the project-wide global-binding table, because a site like
``REGISTRY.append`` in module A depends on module B still binding
``REGISTRY`` at top level.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from repro.verify.cache import AnalysisCache, content_key
from repro.verify.effects.summary import (
    EffectSite,
    GlobalBinding,
    direct_effects,
    module_bindings,
)
from repro.verify.flow.callgraph import CallGraph, tarjan_sccs
from repro.verify.flow.project import Project

#: A summary maps ``(kind, detail)`` to one witness: the call chain
#: (callee qualnames, origin last; empty for a direct site) and the
#: origin site itself.
Summary = dict[tuple[str, str], tuple[tuple[str, ...], EffectSite]]


@dataclass
class EffectIndex:
    """Everything the effect rules consume."""

    project: Project
    graph: CallGraph
    #: Direct sites per function qualname.
    direct: dict[str, tuple[EffectSite, ...]] = field(default_factory=dict)
    #: Direct sites of each module's top-level scope.
    module_direct: dict[str, tuple[EffectSite, ...]] = field(default_factory=dict)
    #: Transitive summaries per function qualname.
    summaries: dict[str, Summary] = field(default_factory=dict)
    #: Module-level data bindings: module name -> bare name -> binding.
    bindings: dict[str, dict[str, GlobalBinding]] = field(default_factory=dict)

    def chain_text(self, qualname: str, chain: tuple[str, ...]) -> str:
        """Human rendering of a witness path from ``qualname``."""
        if len(chain) == 0:
            return "directly"
        return "via " + " -> ".join(chain)


def infer_effects(
    project: Project,
    graph: CallGraph,
    cache: Optional[AnalysisCache] = None,
    source_digests: Optional[dict[str, str]] = None,
) -> EffectIndex:
    """Build the full effect index for a loaded project.

    ``source_digests`` maps module name -> content digest (available
    when the caller went through :func:`repro.verify.config.
    load_sources`); without it, per-file caching is skipped and only
    in-memory extraction runs.
    """
    idx = EffectIndex(project, graph)
    # -- pass 1: module-level bindings (pure per-file) -------------------
    for name, module in project.modules.items():
        idx.bindings[name] = module_bindings(module)
    bindings_digest = content_key(
        ";".join(
            f"{b.qualname}:{int(b.mutable)}"
            for mod in sorted(idx.bindings)
            for b in idx.bindings[mod].values()
        )
    )
    # -- pass 2: direct sites per scope, content-cached ------------------
    for name, module in project.modules.items():
        key = ""
        cached_ok = False
        if cache is not None and source_digests is not None and name in source_digests:
            key = content_key(source_digests[name], "effects", name, bindings_digest)
            cached = cache.load("effects", key)
            if isinstance(cached, dict):
                functions = cached.get("functions")
                top = cached.get("module")
                if isinstance(functions, dict) and isinstance(top, tuple):
                    for qualname, sites in functions.items():
                        idx.direct[qualname] = sites
                    idx.module_direct[name] = top
                    cached_ok = True
        if cached_ok:
            continue
        per_function: dict[str, tuple[EffectSite, ...]] = {}
        for func in project.iter_functions():
            if func.module != name:
                continue
            sites = direct_effects(func.scope, idx.bindings)
            per_function[func.qualname] = sites
            idx.direct[func.qualname] = sites
        top_sites = direct_effects(module.scope, idx.bindings)
        idx.module_direct[name] = top_sites
        if cache is not None and key:
            cache.store(
                "effects", key, {"functions": per_function, "module": top_sites}
            )
    # -- pass 3: bottom-up propagation over SCCs -------------------------
    nodes = sorted(project.functions)
    edges = {
        name: {c for c in graph.edges.get(name, set()) if c in project.functions}
        for name in nodes
    }
    for component in tarjan_sccs(nodes, edges):
        members = set(component)
        # Seed every member with its own direct sites...
        for member in component:
            summary: Summary = {}
            for site in idx.direct.get(member, ()):
                summary.setdefault((site.kind, site.detail), ((), site))
            idx.summaries[member] = summary
        # ...fold in external callee summaries (already complete)...
        for member in component:
            summary = idx.summaries[member]
            for callee in sorted(edges.get(member, ())):
                if callee in members:
                    continue
                for entry_key, (chain, site) in idx.summaries[callee].items():
                    candidate = ((callee,) + chain, site)
                    existing = summary.get(entry_key)
                    if existing is None or len(candidate[0]) < len(existing[0]):
                        summary[entry_key] = candidate
        # ...then share everything across the cycle to a fixpoint.
        if len(component) > 1 or component[0] in edges.get(component[0], set()):
            changed = True
            while changed:
                changed = False
                for member in component:
                    summary = idx.summaries[member]
                    for callee in sorted(edges.get(member, ())):
                        if callee not in members:
                            continue
                        for entry_key, (chain, site) in list(
                            idx.summaries[callee].items()
                        ):
                            if entry_key not in summary:
                                summary[entry_key] = ((callee,) + chain, site)
                                changed = True
    return idx


def is_async(project: Project, qualname: str) -> bool:
    """True when ``qualname`` is an ``async def`` project function."""
    func = project.functions.get(qualname)
    return func is not None and isinstance(func.node, ast.AsyncFunctionDef)
