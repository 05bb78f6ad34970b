"""Engine-level tests: effect extraction, SCC propagation, caching."""

from __future__ import annotations

from pathlib import Path

from repro.verify.cache import AnalysisCache
from repro.verify.config import load_sources
from repro.verify.effects.infer import infer_effects
from repro.verify.effects.summary import module_bindings
from repro.verify.flow.callgraph import CallGraph, tarjan_sccs
from repro.verify.flow.project import Project


def build(tmp_path: Path, files: dict[str, str], cache=None):
    for name, text in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    sources = load_sources([tmp_path], cache)
    project = Project.load([tmp_path], sources=sources, cache=cache)
    graph = CallGraph.build(project)
    digests = {s.name: s.digest for s in sources}
    return infer_effects(project, graph, cache=cache, source_digests=digests)


class TestTarjan:
    def test_chain_emits_callees_first(self) -> None:
        comps = tarjan_sccs(["a", "b", "c"], {"a": {"b"}, "b": {"c"}})
        assert comps == [["c"], ["b"], ["a"]]

    def test_cycle_is_one_component(self) -> None:
        comps = tarjan_sccs(
            ["a", "b", "c", "d"], {"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}}
        )
        assert ["a", "b", "c"] in comps
        assert comps.index(["a", "b", "c"]) < comps.index(["d"])

    def test_self_loop(self) -> None:
        comps = tarjan_sccs(["a"], {"a": {"a"}})
        assert comps == [["a"]]

    def test_disconnected_nodes_all_emitted(self) -> None:
        comps = tarjan_sccs(["x", "y"], {})
        assert sorted(c[0] for c in comps) == ["x", "y"]

    def test_large_chain_is_iterative(self) -> None:
        # Deeper than CPython's default recursion limit: only an
        # explicit-stack implementation survives this.
        size = 5_000
        nodes = [f"n{i}" for i in range(size)]
        edges = {f"n{i}": {f"n{i + 1}"} for i in range(size - 1)}
        comps = tarjan_sccs(nodes, edges)
        assert len(comps) == size


class TestPropagation:
    def test_effects_flow_up_a_call_chain(self, tmp_path) -> None:
        idx = build(
            tmp_path,
            {
                "chain.py": (
                    "import time\n"
                    "def leaf():\n"
                    "    time.sleep(1)\n"
                    "def mid():\n"
                    "    leaf()\n"
                    "def top():\n"
                    "    mid()\n"
                )
            },
        )
        summary = idx.summaries["chain.top"]
        chain, site = summary[("blocking", "time.sleep()")]
        assert chain == ("chain.mid", "chain.leaf")
        assert site.lineno == 3

    def test_cycle_members_share_effects(self, tmp_path) -> None:
        idx = build(
            tmp_path,
            {
                "cyc.py": (
                    "import time\n"
                    "def ping(n):\n"
                    "    if n:\n"
                    "        pong(n - 1)\n"
                    "def pong(n):\n"
                    "    time.sleep(1)\n"
                    "    ping(n)\n"
                )
            },
        )
        assert ("blocking", "time.sleep()") in idx.summaries["cyc.ping"]
        assert ("blocking", "time.sleep()") in idx.summaries["cyc.pong"]

    def test_shortest_witness_chain_wins(self, tmp_path) -> None:
        idx = build(
            tmp_path,
            {
                "w.py": (
                    "import time\n"
                    "def direct():\n"
                    "    time.sleep(1)\n"
                    "def indirect():\n"
                    "    direct()\n"
                    "def top():\n"
                    "    indirect()\n"
                    "    direct()\n"
                )
            },
        )
        chain, _ = idx.summaries["w.top"][("blocking", "time.sleep()")]
        assert chain == ("w.direct",)

    def test_global_write_through_import_is_seen(self, tmp_path) -> None:
        idx = build(
            tmp_path,
            {
                "state.py": "REGISTRY = {}\n",
                "writer.py": (
                    "from state import REGISTRY\n"
                    "def record(k):\n"
                    "    REGISTRY[k] = 1\n"
                ),
            },
        )
        assert ("global-write", "state.REGISTRY") in idx.summaries["writer.record"]

    def test_local_shadow_suppresses_module_match(self, tmp_path) -> None:
        idx = build(
            tmp_path,
            {
                "sh.py": (
                    "def f():\n"
                    "    time = object()\n"
                    "    return time.sleep\n"
                )
            },
        )
        assert idx.summaries["sh.f"] == {}


class TestModuleBindings:
    def test_mutability_classification(self, tmp_path) -> None:
        (tmp_path / "m.py").write_text(
            "A = {}\nB = []\nC = set()\nD = 3\nE = (1, 2)\nF: dict = dict()\n",
            encoding="utf-8",
        )
        project = Project.load([tmp_path])
        bindings = module_bindings(project.modules["m"])
        assert bindings["A"].mutable and bindings["B"].mutable
        assert bindings["C"].mutable and bindings["F"].mutable
        assert not bindings["D"].mutable and not bindings["E"].mutable

    def test_functions_and_classes_are_not_data_bindings(self, tmp_path) -> None:
        (tmp_path / "m.py").write_text(
            "def f():\n    pass\nclass C:\n    pass\nX = 1\n", encoding="utf-8"
        )
        project = Project.load([tmp_path])
        assert set(module_bindings(project.modules["m"])) == {"X"}


class TestIncrementalCache:
    def test_warm_rerun_skips_extraction(self, tmp_path) -> None:
        src = tmp_path / "proj"
        cache_root = tmp_path / "cache"
        cache = AnalysisCache(cache_root)
        files = {
            "a.py": "import time\ndef f():\n    time.sleep(1)\n",
            "b.py": "from a import f\ndef g():\n    f()\n",
        }
        cold = build(src, files, cache=cache)
        assert cache.misses > 0
        warm_cache = AnalysisCache(cache_root)
        warm = build(src, files, cache=warm_cache)
        assert warm_cache.misses == 0
        assert warm_cache.hits > 0
        assert warm.summaries.keys() == cold.summaries.keys()
        assert warm.summaries["b.g"] == cold.summaries["b.g"]

    def test_editing_one_file_invalidates_only_it(self, tmp_path) -> None:
        src = tmp_path / "proj"
        cache_root = tmp_path / "cache"
        files = {
            "a.py": "import time\ndef f():\n    time.sleep(1)\n",
            "b.py": "def g():\n    return 2\n",
        }
        build(src, files, cache=AnalysisCache(cache_root))
        files["b.py"] = "def g():\n    return 3\n"
        cache = AnalysisCache(cache_root)
        idx = build(src, files, cache=cache)
        # a.py: ast + effects hits; b.py misses both kinds.
        assert cache.hits >= 2
        assert 0 < cache.misses <= 2
        assert ("blocking", "time.sleep()") in idx.summaries["a.f"]

    def test_new_global_binding_invalidates_other_files(self, tmp_path) -> None:
        """Cross-file soundness: effect keys fold the binding table in."""
        src = tmp_path / "proj"
        cache_root = tmp_path / "cache"
        files = {
            "state.py": "X = 1\n",
            "writer.py": "from state import REGISTRY\ndef r(k):\n"
            "    REGISTRY[k] = 1\n",
        }
        idx = build(src, files, cache=AnalysisCache(cache_root))
        assert idx.summaries["writer.r"] == {}
        # state.py gains a mutable REGISTRY: writer.py is untouched but
        # its cached (empty) effect set must not be reused.
        files["state.py"] = "X = 1\nREGISTRY = {}\n"
        idx = build(src, files, cache=AnalysisCache(cache_root))
        assert ("global-write", "state.REGISTRY") in idx.summaries["writer.r"]
