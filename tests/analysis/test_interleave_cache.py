"""Incremental-cache behavior of the interleave pass.

The per-file segment/spawn models are content-cached; everything
cross-file (coroutine resolution for REPRO020, class write-sets for
REPRO023) is recomputed from the shared project each run. These tests
pin both halves: warm reruns must be all hits, and an edit in one file
must change cross-file verdicts even when the *other* file's cached
model is still warm.
"""

from __future__ import annotations

from pathlib import Path

from repro.verify.cache import AnalysisCache
from repro.verify.engine import analyze

INTERLEAVE_SELECT = frozenset(f"REPRO0{i}" for i in range(18, 24))

SPAWNER = (
    "import asyncio\n"
    "from helper import flush\n"
    "\n"
    "\n"
    "async def top():\n"
    "    flush()\n"
    "    await asyncio.sleep(0)\n"
)

ASYNC_HELPER = "import asyncio\n\n\nasync def flush():\n    await asyncio.sleep(0)\n"
SYNC_HELPER = "def flush():\n    return None\n"


def write_tree(src: Path, files: dict[str, str]) -> None:
    src.mkdir(exist_ok=True)
    for name, text in files.items():
        (src / name).write_text(text, encoding="utf-8")


class TestIncrementalCache:
    def test_warm_rerun_is_all_hits(self, tmp_path) -> None:
        src = tmp_path / "proj"
        cache_root = tmp_path / "cache"
        write_tree(src, {"caller.py": SPAWNER, "helper.py": ASYNC_HELPER})
        cold_cache = AnalysisCache(cache_root)
        cold = analyze([src], INTERLEAVE_SELECT, cache=cold_cache)
        assert cold_cache.misses > 0
        warm_cache = AnalysisCache(cache_root)
        warm = analyze([src], INTERLEAVE_SELECT, cache=warm_cache)
        assert warm_cache.misses == 0
        assert warm_cache.hits > 0
        assert [f.fingerprint() for f in warm] == [
            f.fingerprint() for f in cold
        ]
        # The dropped coroutine is found both cold and warm.
        assert [f.rule for f in warm] == ["REPRO020"]

    def test_editing_one_file_invalidates_only_it(self, tmp_path) -> None:
        src = tmp_path / "proj"
        cache_root = tmp_path / "cache"
        write_tree(src, {"caller.py": SPAWNER, "helper.py": ASYNC_HELPER})
        analyze([src], INTERLEAVE_SELECT, cache=AnalysisCache(cache_root))
        write_tree(src, {"helper.py": ASYNC_HELPER + "\n# trailing note\n"})
        cache = AnalysisCache(cache_root)
        findings = analyze([src], INTERLEAVE_SELECT, cache=cache)
        # caller.py: ast + interleave model hits; helper.py misses both.
        assert cache.hits >= 2
        assert 0 < cache.misses <= 2
        assert [f.rule for f in findings] == ["REPRO020"]

    def test_cross_file_edit_flips_the_verdict_through_warm_models(
        self, tmp_path
    ) -> None:
        """caller.py's cached model must not freeze a cross-file fact:
        when helper.flush stops being async, the REPRO020 finding in the
        *unchanged* caller must disappear on the warm run."""
        src = tmp_path / "proj"
        cache_root = tmp_path / "cache"
        write_tree(src, {"caller.py": SPAWNER, "helper.py": ASYNC_HELPER})
        before = analyze([src], INTERLEAVE_SELECT, cache=AnalysisCache(cache_root))
        assert [f.rule for f in before] == ["REPRO020"]
        write_tree(src, {"helper.py": SYNC_HELPER})
        cache = AnalysisCache(cache_root)
        after = analyze([src], INTERLEAVE_SELECT, cache=cache)
        assert after == []
        # caller.py stayed warm while the verdict still flipped.
        assert cache.hits >= 2

    def test_no_cache_still_analyzes(self, tmp_path) -> None:
        src = tmp_path / "proj"
        write_tree(src, {"caller.py": SPAWNER, "helper.py": ASYNC_HELPER})
        findings = analyze([src], INTERLEAVE_SELECT, cache=None)
        assert [f.rule for f in findings] == ["REPRO020"]
