"""The rule contract: :class:`RuleSpec` and :class:`RuleContext`.

A rule is a plain function from a :class:`RuleContext` to a list of
:class:`~repro.verify.findings.Finding`; its :class:`RuleSpec` gives it
a code, a kebab-case name, and the one-line summary that
``--list-rules`` and SARIF print. The rule modules import these two
types and the registry (:mod:`repro.verify.engine`) imports the rule
modules, so the imports stay acyclic.

The context holds what every rule shares — the parsed sources, the
project symbol table, and the call graph — and builds each pass's own
input lazily, on first use: the per-file lint findings, the effect
index, and the interleave models. A selection that names no rule of a
pass never builds that pass's input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.verify.cache import AnalysisCache
from repro.verify.config import (
    SourceFile,
    default_metrics_docs,
    find_repo_root,
    load_sources,
)
from repro.verify.effects.infer import EffectIndex, infer_effects
from repro.verify.findings import Finding, relativize
from repro.verify.flow.callgraph import CallGraph
from repro.verify.flow.project import Project
from repro.verify.interleave.model import FuncModel, build_models
from repro.verify.lint import collect_len_classes, lint_sources


@dataclass
class RuleContext:
    """Everything a rule may consult, built once per analysis run."""

    sources: list[SourceFile]
    project: Project
    graph: CallGraph
    root: Optional[Path]
    #: Metric catalog documents REPRO012 checks the code against.
    metrics_docs: list[Path]
    #: True when the caller named the catalogs (the fixtures do).
    explicit_docs: bool
    cache: Optional[AnalysisCache] = None

    @classmethod
    def load(
        cls,
        paths: Sequence[Path],
        *,
        metrics_docs: Optional[Sequence[Path]] = None,
        cache: Optional[AnalysisCache] = None,
    ) -> "RuleContext":
        """Parse every file under ``paths`` once and resolve it.

        ``metrics_docs`` defaults to the repo's catalogs (see
        :func:`repro.verify.config.default_metrics_docs`).
        """
        sources = load_sources(paths, cache)
        project = Project.load(paths, sources=sources, cache=cache)
        return cls(
            sources=sources,
            project=project,
            graph=CallGraph.build(project),
            root=find_repo_root(paths[0]) if len(paths) > 0 else None,
            metrics_docs=(
                list(metrics_docs)
                if metrics_docs is not None
                else default_metrics_docs(paths)
            ),
            explicit_docs=metrics_docs is not None,
            cache=cache,
        )

    def rel(self, path: Path) -> str:
        return relativize(path, self.root)

    @cached_property
    def digests(self) -> dict[str, str]:
        """Module name -> content digest, the per-file cache key."""
        return {source.name: source.digest for source in self.sources}

    @cached_property
    def lint_findings(self) -> list[Finding]:
        """Every per-file lint finding (REPRO001-006), unsuppressed."""
        len_classes = collect_len_classes(self.project.modules.values())
        return lint_sources(self.sources, self.root, len_classes, self.cache)

    @cached_property
    def effects(self) -> EffectIndex:
        """The effect summaries the REPRO013-017 rules consume."""
        return infer_effects(
            self.project, self.graph, cache=self.cache, source_digests=self.digests
        )

    @cached_property
    def models(self) -> dict[str, FuncModel]:
        """The await-segment models the REPRO018-023 rules consume."""
        return build_models(self.project, cache=self.cache, source_digests=self.digests)


@dataclass(frozen=True)
class RuleSpec:
    """One rule's identity and entry point."""

    code: str
    name: str
    summary: str
    run: Callable[[RuleContext], list[Finding]]
