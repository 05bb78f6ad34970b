"""The concurrency-readiness rule set: REPRO013-015 and REPRO017.

Same contract as the flow rules (:mod:`repro.verify.flow.rules`): each
rule is a plain function from :class:`~repro.verify.context.RuleContext`
to findings, reading the effect summaries from ``ctx.effects``, and on
ambiguity it stays silent. :data:`SPECS` joins the registry in
:mod:`repro.verify.engine`.

How to add a rule: see "Adding a rule" in ``docs/VERIFICATION.md``.
"""

from __future__ import annotations

from pathlib import Path

from repro.verify.config import package_parts
from repro.verify.context import RuleContext, RuleSpec
from repro.verify.effects.infer import is_async
from repro.verify.effects.summary import EffectSite
from repro.verify.findings import Finding
from repro.verify.flow.project import FunctionInfo

#: Packages (under ``repro/``) that *are* the determinism seams — raw
#: clock/RNG use inside them is the implementation of the seam itself.
BLESSED_SEAM_PACKAGES = frozenset({"faults"})

#: Classes whose public methods are tenant entry points: each daemon
#: tenant calls into its own instance, interleaved on one event loop.
TENANT_ENTRY_CLASSES = frozenset({"SmaltaManager"})

#: Functions that must stay pure so that a snapshot is a function of
#: the trie alone: the snapshot entry points and the ORTC table they run.
SNAPSHOT_ROOT_NAMES = frozenset({"snapshot", "snapshot_now", "ortc_table"})

#: Effect kinds that break snapshot purity (REPRO017).
IMPURE_KINDS = ("global-write", "io", "rng", "clock")


def _in_blessed_seam(path: Path) -> bool:
    parts = package_parts(path)
    return bool(parts) and parts[0] in BLESSED_SEAM_PACKAGES


# -- REPRO013: blocking call reachable from async -----------------------


def _rule_blocking_in_async(ctx: RuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for qualname in sorted(ctx.project.functions):
        if not is_async(ctx.project, qualname):
            continue
        func = ctx.project.functions[qualname]
        summary = ctx.effects.summaries.get(qualname, {})
        for (kind, detail), (chain, site) in sorted(summary.items()):
            if kind != "blocking":
                continue
            route = ctx.effects.chain_text(qualname, chain)
            anchor = func.lineno if len(chain) > 0 else site.lineno
            findings.append(
                Finding(
                    "REPRO013",
                    ctx.rel(func.path),
                    anchor,
                    qualname,
                    f"async {qualname} reaches blocking {detail} {route}; "
                    "a blocked event loop stalls every tenant — await an "
                    "async equivalent or offload to an executor",
                )
            )
    return findings


# -- REPRO014: determinism-seam bypass ----------------------------------

_SEAM_HINTS = {
    "clock": (
        "inject the clock instead (a `clock: Callable[[], float]` "
        "parameter defaulting to the time function keeps replays "
        "deterministic)"
    ),
    "rng": (
        "thread a seeded `rng: random.Random` parameter through "
        "(the repo's blessed randomness seam) instead of the "
        "process-global RNG"
    ),
}


def _rule_seam_bypass(ctx: RuleContext) -> list[Finding]:
    findings: list[Finding] = []
    scopes: list[tuple[str, Path, tuple[EffectSite, ...]]] = []
    for name in sorted(ctx.effects.module_direct):
        module = ctx.project.modules[name]
        scopes.append((name, module.path, ctx.effects.module_direct[name]))
    for qualname in sorted(ctx.effects.direct):
        func = ctx.project.functions.get(qualname)
        if func is None:
            continue
        scopes.append((qualname, func.path, ctx.effects.direct[qualname]))
    for symbol, path, sites in scopes:
        if _in_blessed_seam(path):
            continue
        for site in sites:
            hint = _SEAM_HINTS.get(site.kind)
            if hint is None:
                continue
            noun = "reads the real clock" if site.kind == "clock" else (
                "draws unseeded randomness"
            )
            findings.append(
                Finding(
                    "REPRO014",
                    ctx.rel(path),
                    site.lineno,
                    symbol,
                    f"{site.detail} {noun}, bypassing the determinism "
                    f"seam; {hint}",
                )
            )
    return findings


# -- REPRO015: module state shared between tenants ---------------------


def _tenant_entry_points(ctx: RuleContext) -> list[FunctionInfo]:
    entries: list[FunctionInfo] = []
    for cls_qual in sorted(ctx.project.classes):
        info = ctx.project.classes[cls_qual]
        if info.name not in TENANT_ENTRY_CLASSES:
            continue
        for method_name in sorted(info.methods):
            if not method_name.startswith("_"):
                entries.append(info.methods[method_name])
    return entries


def _rule_tenant_escape(ctx: RuleContext) -> list[Finding]:
    entries = _tenant_entry_points(ctx)
    #: global qualname -> entry qualname -> (chain, site)
    writers: dict[str, dict[str, tuple[tuple[str, ...], EffectSite]]] = {}
    for entry in entries:
        summary = ctx.effects.summaries.get(entry.qualname, {})
        for (kind, detail), witness in summary.items():
            if kind == "global-write":
                writers.setdefault(detail, {})[entry.qualname] = witness
    findings: list[Finding] = []
    for detail in sorted(writers):
        by_entry = writers[detail]
        if len(by_entry) < 2:
            continue  # written through one entry point only
        module_name, bare = detail.rsplit(".", 1)
        binding = ctx.effects.bindings.get(module_name, {}).get(bare)
        module = ctx.project.modules.get(module_name)
        if binding is None or module is None:
            continue
        sample = ", ".join(
            f"{entry} ({ctx.effects.chain_text(entry, chain)})"
            for entry, (chain, _site) in sorted(by_entry.items())[:3]
        )
        findings.append(
            Finding(
                "REPRO015",
                ctx.rel(module.path),
                binding.lineno,
                detail,
                f"module-level mutable {detail} is written from "
                f"{len(by_entry)} tenant entry points ({sample}); the "
                "daemon's tenants share one process, so this state couples "
                "them — move it onto the manager",
            )
        )
    return findings


# -- REPRO017: impurity reachable from the snapshot path ----------------


def _snapshot_roots(ctx: RuleContext) -> list[FunctionInfo]:
    roots: list[FunctionInfo] = []
    for qualname in sorted(ctx.project.functions):
        func = ctx.project.functions[qualname]
        if func.name not in SNAPSHOT_ROOT_NAMES:
            continue
        # Inside the repo namespace only the core algorithms are roots;
        # fixture/test trees (no ``repro.`` prefix) qualify by name.
        if func.module.startswith("repro.") and not func.module.startswith(
            "repro.core"
        ):
            continue
        roots.append(func)
    return roots


def _rule_impure_snapshot(ctx: RuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for root_func in _snapshot_roots(ctx):
        summary = ctx.effects.summaries.get(root_func.qualname, {})
        for (kind, detail), (chain, site) in sorted(summary.items()):
            if kind not in IMPURE_KINDS:
                continue
            route = ctx.effects.chain_text(root_func.qualname, chain)
            anchor = root_func.lineno if len(chain) > 0 else site.lineno
            findings.append(
                Finding(
                    "REPRO017",
                    ctx.rel(root_func.path),
                    anchor,
                    root_func.qualname,
                    f"snapshot-path function {root_func.qualname} reaches "
                    f"impure {detail} ({kind}) {route}; a snapshot must be "
                    "a pure function of the trie, so that a rerun or a "
                    "replay yields the same table (writes confined to the "
                    "manager's own state)",
                )
            )
    return findings


# -- registry ------------------------------------------------------------


SPECS: tuple[RuleSpec, ...] = (
    RuleSpec(
        "REPRO013",
        "blocking-in-async",
        "blocking call (sleep/file IO/subprocess) reachable from an "
        "async def; it would stall the event loop",
        _rule_blocking_in_async,
    ),
    RuleSpec(
        "REPRO014",
        "seam-bypass",
        "raw clock read or unseeded RNG outside the repro.faults seams "
        "and the seeded rng-parameter idiom",
        _rule_seam_bypass,
    ),
    RuleSpec(
        "REPRO015",
        "tenant-escape",
        "module-level mutable state written from more than one tenant "
        "entry point",
        _rule_tenant_escape,
    ),
    RuleSpec(
        "REPRO017",
        "impure-snapshot-path",
        "global write, IO, or nondeterminism reachable from the "
        "snapshot path, which must be a pure function of the trie",
        _rule_impure_snapshot,
    ),
)
