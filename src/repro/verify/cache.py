"""Content-hash incremental cache shared by every analyzer pass.

Every rule ultimately starts from the same expensive inputs: read a
file, ``ast.parse`` it, and derive per-file artifacts (lint findings,
direct effect summaries, interleave segment models).
:class:`AnalysisCache` keys those artifacts by the SHA-256 of the file
*content* (salted with a cache-format version), so a warm run
re-analyzes only files whose bytes actually changed — ``git checkout``,
``touch``, and CI cache restores cannot invalidate it spuriously,
because no timestamps are involved.

Layout on disk::

    .repro-cache/
        ast/<digest>.pkl         pickled ast.Module
        lint/<digest>.pkl        list[Finding] for one file
        effects/<digest>.pkl     per-function direct EffectSite tuples
        interleave/<digest>.pkl  per-function FuncModel for one file

Entries are written atomically (temp file + ``os.replace``) and any
unreadable or corrupt entry degrades to a cache miss — the cache can be
deleted or truncated at any time without affecting correctness, only
warm-run speed. Hit/miss counters live on the instance so the CLI can
prove a warm run skipped unchanged files.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Optional

#: Bump whenever the shape or the meaning of any cached artifact
#: changes; the version participates in every content digest, so stale
#: entries simply miss.
CACHE_VERSION = 3

#: Directory name of the cache at the repo root.
CACHE_DIR_NAME = ".repro-cache"

#: Setting this environment variable to a non-empty value disables all
#: caching (useful to rule the cache out when debugging the analyzers).
DISABLE_ENV = "REPRO_NO_CACHE"


def content_key(text: str, *extra: str) -> str:
    """SHA-256 digest of ``text`` salted with the cache version.

    ``extra`` components fold additional invalidation inputs into the
    key (e.g. the module name, or a digest of cross-file context a
    per-file artifact depends on).
    """
    hasher = hashlib.sha256()
    hasher.update(f"v{CACHE_VERSION}".encode("utf-8"))
    for part in extra:
        hasher.update(b"\x00")
        hasher.update(part.encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(text.encode("utf-8"))
    return hasher.hexdigest()


class AnalysisCache:
    """A content-addressed pickle store under one directory."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.hits = 0
        self.misses = 0

    @classmethod
    def for_root(cls, root: Path) -> Optional["AnalysisCache"]:
        """The cache under ``root``, or None when disabled by env."""
        if os.environ.get(DISABLE_ENV):
            return None
        return cls(root / CACHE_DIR_NAME)

    def _entry_path(self, kind: str, key: str) -> Path:
        return self.directory / kind / f"{key}.pkl"

    def load(self, kind: str, key: str) -> Optional[object]:
        """The stored object, or None on a miss (absent or corrupt)."""
        entry = self._entry_path(kind, key)
        try:
            payload = entry.read_bytes()
            value = pickle.loads(payload)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return value

    def store(self, kind: str, key: str, value: object) -> None:
        """Persist ``value`` atomically; IO failures are non-fatal."""
        entry = self._entry_path(kind, key)
        try:
            entry.parent.mkdir(parents=True, exist_ok=True)
            tmp = entry.with_name(f"{entry.name}.{os.getpid()}.tmp")
            tmp.write_bytes(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
            os.replace(tmp, entry)
        except OSError:
            pass  # a read-only checkout still analyzes correctly, just cold

    def stats(self) -> str:
        """One-line hit/miss summary for CLI ``--stats`` output."""
        total = self.hits + self.misses
        return f"cache: {self.hits} hit(s), {self.misses} miss(es) of {total}"
