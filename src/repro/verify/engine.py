"""The analyzer engine: the one rule registry and :func:`analyze`.

:data:`RULES` holds every code: the per-file lint rules (below) and the
whole-program rules of the flow (REPRO007-012), effects (REPRO013-017),
and interleave (REPRO018-023) modules. A retired rule's code is never
reassigned. :func:`analyze` reads and parses each file once, builds one
project symbol table and one call graph, runs the selected rules over
one :class:`~repro.verify.context.RuleContext`, applies the inline
suppressions once, and sorts once.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.verify.cache import AnalysisCache
from repro.verify.context import RuleContext, RuleSpec
from repro.verify.effects.rules import SPECS as EFFECT_SPECS
from repro.verify.findings import Finding, is_suppressed
from repro.verify.flow.rules import SPECS as FLOW_SPECS
from repro.verify.interleave.rules import SPECS as INTERLEAVE_SPECS


def _lint_rule(code: str) -> Callable[[RuleContext], list[Finding]]:
    """A lint rule: its share of the one visitor pass per file."""

    def run(ctx: RuleContext) -> list[Finding]:
        return [finding for finding in ctx.lint_findings if finding.rule == code]

    return run


LINT_SPECS: tuple[RuleSpec, ...] = (
    RuleSpec(
        "REPRO001",
        "missing-slots",
        "node class must declare __slots__",
        _lint_rule("REPRO001"),
    ),
    RuleSpec(
        "REPRO002",
        "trie-write-outside-core",
        "trie bookkeeping attribute written outside repro/core",
        _lint_rule("REPRO002"),
    ),
    RuleSpec(
        "REPRO003",
        "wall-clock-call",
        "wall-clock read in library code (inject a clock instead)",
        _lint_rule("REPRO003"),
    ),
    RuleSpec(
        "REPRO005",
        "untyped-public",
        "public function missing parameter or return annotations",
        _lint_rule("REPRO005"),
    ),
    RuleSpec(
        "REPRO006",
        "falsy-len-guard",
        "truthiness test on a __len__-bearing object",
        _lint_rule("REPRO006"),
    ),
)

RULES: dict[str, RuleSpec] = {
    spec.code: spec
    for spec in (*LINT_SPECS, *FLOW_SPECS, *EFFECT_SPECS, *INTERLEAVE_SPECS)
}


def run_rules(
    ctx: RuleContext, select: Optional[frozenset[str]] = None
) -> list[Finding]:
    """Run the selected rules (default: all) over a loaded context.

    Findings waived by an inline marker (see
    :func:`repro.verify.findings.is_suppressed`) are dropped; the rest
    come back sorted by path, line, rule, and message.
    """
    findings: list[Finding] = []
    for code in sorted(RULES):
        if select is None or code in select:
            findings.extend(RULES[code].run(ctx))
    lines = {ctx.rel(source.path): source.lines for source in ctx.sources}
    kept = [
        finding
        for finding in findings
        if finding.path not in lines
        or not is_suppressed(lines[finding.path], finding.line, finding.rule)
    ]
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return kept


def analyze(
    paths: Sequence[Path],
    select: Optional[frozenset[str]] = None,
    *,
    metrics_docs: Optional[Sequence[Path]] = None,
    cache: Optional[AnalysisCache] = None,
) -> list[Finding]:
    """Run the selected rules (default: all) over every file under ``paths``.

    ``metrics_docs`` points REPRO012 at catalog documents other than the
    repo's own; ``cache`` reuses per-file artifacts across runs (see
    :mod:`repro.verify.cache`).
    """
    ctx = RuleContext.load(paths, metrics_docs=metrics_docs, cache=cache)
    return run_rules(ctx, select)
