"""Shared file discovery and package-scope configuration for the
analyzer.

Every pass — the per-file lint visitor (:mod:`repro.verify.lint`) and
the whole-program flow, effects, and interleave engines — walks the
same source tree and agrees on which packages sit inside which
enforcement perimeter. This module is that single source of truth.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.verify.cache import AnalysisCache, content_key

#: Packages (under ``repro/``) whose public functions must be fully
#: annotated (lint rule REPRO005) — the ``mypy --strict`` floor.
ANNOTATED_PACKAGES: tuple[str, ...] = (
    "core",
    "net",
    "verify",
    "fib",
    "router",
    "bgp",
    "workloads",
    "obs",
    "faults",
)


def package_parts(path: Path) -> tuple[str, ...]:
    """The path components after the last ``repro`` directory, if any."""
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return parts[index + 1 :]
    return parts


def collect_files(paths: Sequence[Path]) -> list[Path]:
    """Every analyzable ``.py`` file under ``paths``, sorted, deduplicated.

    Directories are walked recursively; ``__pycache__`` and egg-info
    trees are skipped. Explicit file arguments are kept only when they
    end in ``.py``.
    """
    files: list[Path] = []
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = [
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
                and not any(part.endswith(".egg-info") for part in p.parts)
            ]
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    return files


def module_name(path: Path) -> str:
    """The dotted import name a file would have, inferred structurally.

    Walks up from the file while ``__init__.py`` markers are present, so
    ``src/repro/core/smalta.py`` maps to ``repro.core.smalta`` and a
    bare script maps to its stem. Robust for fixture trees in temporary
    directories, which is what the engine's tests feed it.
    """
    resolved = path.resolve()
    parts = [resolved.stem]
    current = resolved.parent
    while (current / "__init__.py").exists():
        parts.append(current.name)
        current = current.parent
    if parts[0] == "__init__":
        parts = parts[1:]
        if not parts:
            return resolved.parent.name
    return ".".join(reversed(parts))


def find_repo_root(start: Path) -> Optional[Path]:
    """The nearest ancestor of ``start`` holding a ``pyproject.toml``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    while True:
        if (current / "pyproject.toml").exists():
            return current
        if current.parent == current:
            return None
        current = current.parent


@dataclass
class SourceFile:
    """One file read and parsed exactly once, shared by every pass.

    ``digest`` is the cache key of the content (see
    :func:`repro.verify.cache.content_key`); per-file artifacts derived
    downstream (lint findings, effect summaries) key off it so they
    survive between runs while the content does.
    """

    path: Path
    name: str  #: dotted module name (structural inference)
    text: str
    tree: ast.Module
    lines: list[str]
    digest: str


def load_sources(
    paths: Sequence[Path], cache: Optional[AnalysisCache] = None
) -> list[SourceFile]:
    """Read and parse every file under ``paths`` exactly once.

    This is the single parse pass every rule consumes (through
    :class:`repro.verify.context.RuleContext`), so one run touches each
    file's bytes once. With a ``cache``, parsed ASTs are reused across
    *runs* as well: an unchanged file's tree is unpickled instead of
    re-parsed, and a changed file misses (content hash) and is parsed
    fresh.
    """
    sources: list[SourceFile] = []
    for path in collect_files(paths):
        text = path.read_text(encoding="utf-8")
        digest = content_key(text)
        tree: Optional[ast.Module] = None
        if cache is not None:
            cached = cache.load("ast", digest)
            if isinstance(cached, ast.Module):
                tree = cached
        if tree is None:
            try:
                tree = ast.parse(text, filename=str(path))
            except SyntaxError as exc:
                raise SystemExit(f"{path}: syntax error: {exc}") from exc
            if cache is not None:
                cache.store("ast", digest, tree)
        sources.append(
            SourceFile(
                path=path,
                name=module_name(path),
                text=text,
                tree=tree,
                lines=text.splitlines(),
                digest=digest,
            )
        )
    return sources


def default_cache(paths: Sequence[Path]) -> Optional[AnalysisCache]:
    """The repo's ``.repro-cache`` for the scan roots, if locatable."""
    for path in paths:
        root = find_repo_root(path)
        if root is not None:
            return AnalysisCache.for_root(root)
    return None


#: Markdown files whose tables catalog the repo's metric series.
METRICS_DOC_NAMES: tuple[str, ...] = (
    "OBSERVABILITY.md",
    "RESILIENCE.md",
    "DAEMON.md",
)


def default_metrics_docs(paths: Sequence[Path]) -> list[Path]:
    """The repo's metric-catalog documents, located from the scan roots.

    Returns an empty list when no enclosing repo root (or no catalog
    document) can be found — rule REPRO012 then skips instead of
    guessing.
    """
    for path in paths:
        root = find_repo_root(path)
        if root is not None:
            docs = [
                root / "docs" / name
                for name in METRICS_DOC_NAMES
                if (root / "docs" / name).exists()
            ]
            if docs:
                return docs
    return []
