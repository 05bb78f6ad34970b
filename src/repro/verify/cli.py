"""The analyzer's command line: ``python -m repro.verify``.

One invocation runs every rule of the registry
(:data:`repro.verify.engine.RULES`) over a *single* parse of the repo:
lint (REPRO001-006), flow (REPRO007-012), effects (REPRO013-017), and
interleave (REPRO018-023). The content-hash
:class:`~repro.verify.cache.AnalysisCache` makes warm reruns skip
unchanged files entirely. Exit contract: **0** clean, **1** findings,
**2** usage error.

``--diff BASE`` is the pull-request fast mode: findings are restricted
to the files changed since ``BASE`` (untracked files included) plus
every module that (transitively) imports one of them — whole-program
analysis still sees the full project, so cross-file rules stay sound;
only the *reporting* scope narrows.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.verify.config import default_cache, find_repo_root
from repro.verify.context import RuleContext
from repro.verify.engine import RULES, run_rules
from repro.verify.findings import (
    relativize,
    render_json,
    render_sarif,
    render_text,
)
from repro.verify.flow.project import Project

#: Default analysis roots, relative to the repo root.
DEFAULT_ROOTS = ("src/repro", "examples")


def _git_lines(root: Path, args: list[str]) -> Optional[set[str]]:
    """Non-empty output lines of ``git <args>`` (None when git fails)."""
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return {line.strip() for line in proc.stdout.splitlines() if line.strip()}


def _changed_files(root: Path, base: str) -> Optional[set[str]]:
    """Python files under ``root`` changed since ``base`` or not yet
    tracked, relative to ``root`` like finding paths (None when git
    fails)."""
    changed = _git_lines(
        root, ["diff", "--name-only", "--relative", base, "--", "*.py"]
    )
    untracked = _git_lines(
        root, ["ls-files", "--others", "--exclude-standard", "--", "*.py"]
    )
    if changed is None or untracked is None:
        return None
    return changed | untracked


def diff_scope(
    project: Project, root: Path, changed: set[str]
) -> set[str]:
    """``changed`` plus every module that transitively imports one.

    The reverse import graph is the dependency cone a change can
    invalidate: whole-program findings outside it cannot have been
    introduced by the diff.
    """
    path_to_module: dict[str, str] = {}
    for name, module in project.modules.items():
        path_to_module[relativize(module.path, root)] = name
    known = set(project.modules)
    # module -> modules that import it (edges point importee -> importer)
    reverse: dict[str, set[str]] = {name: set() for name in known}
    for name, module in project.modules.items():
        for target in module.imports.values():
            # A from-import target may be module.symbol; peel trailing
            # parts until a known module matches.
            candidate = target
            while candidate and candidate not in known:
                if "." not in candidate:
                    candidate = ""
                else:
                    candidate = candidate.rsplit(".", 1)[0]
            if candidate and candidate != name:
                reverse[candidate].add(name)
    seeds = {path_to_module[p] for p in changed if p in path_to_module}
    worklist = list(seeds)
    reached = set(seeds)
    while worklist:
        current = worklist.pop()
        for importer in reverse.get(current, ()):
            if importer not in reached:
                reached.add(importer)
                worklist.append(importer)
    scope = set(changed)
    for name in reached:
        scope.add(relativize(project.modules[name].path, root))
    return scope


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description=(
            "SMALTA static verification: every rule, REPRO001-023 (lint, "
            "flow, effects, interleave), over a single shared parse pass "
            "with an incremental content-hash cache."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help=f"files or directories (default: {' '.join(DEFAULT_ROOTS)})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="write the report here"
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes (default: all)",
    )
    parser.add_argument(
        "--diff",
        metavar="BASE",
        default=None,
        help="fast mode: only report findings in files changed since the "
        "given git ref or untracked, plus modules that transitively "
        "import them",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print cache hit/miss statistics to stderr",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    return parser


def _resolve_paths(args_paths: Sequence[Path]) -> list[Path]:
    if len(args_paths) > 0:
        return list(args_paths)
    root = find_repo_root(Path.cwd()) or Path.cwd()
    return [root / rel for rel in DEFAULT_ROOTS if (root / rel).exists()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    summaries = {code: spec.summary for code, spec in RULES.items()}
    if args.list_rules:
        for code in sorted(summaries):
            print(f"{code}  {summaries[code]}")
        return 0
    paths = _resolve_paths(args.paths)
    if len(paths) == 0:
        parser.error("no paths given and no default roots found")
    for path in paths:
        if not path.exists():
            parser.error(f"no such path: {path}")
    select: Optional[frozenset[str]] = None
    if args.select is not None:
        select = frozenset(
            code.strip() for code in args.select.split(",") if code.strip()
        )
        unknown = select - RULES.keys()
        if unknown:
            parser.error(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    cache = default_cache(paths)
    ctx = RuleContext.load(paths, cache=cache)
    findings = run_rules(ctx, select)

    if args.diff is not None:
        root = ctx.root
        changed = None if root is None else _changed_files(root, args.diff)
        if root is None or changed is None:
            reason = "no repo root found" if root is None else "git failed"
            print(
                f"warning: --diff {args.diff}: {reason}; running in full mode",
                file=sys.stderr,
            )
        else:
            scope = diff_scope(ctx.project, root, changed)
            findings = [f for f in findings if f.path in scope]
            print(
                f"diff mode: {len(changed)} changed file(s), "
                f"{len(scope)} in reporting scope",
                file=sys.stderr,
            )

    if args.format == "text":
        rendered = render_text(findings)
    elif args.format == "json":
        rendered = render_json(findings)
    else:
        rendered = render_sarif(findings, summaries)
    if args.output is not None:
        args.output.write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    if args.stats and cache is not None:
        print(cache.stats(), file=sys.stderr)
    return 1 if len(findings) > 0 else 0
