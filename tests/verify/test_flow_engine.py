"""Unit tests for the flow analyzer's engine layers.

Covers the pieces underneath the rules: CFG construction, the
liveness and forward-fixpoint solvers, call-graph resolution and the
Tarjan cycle finder, the suppression grammar (with a hypothesis
round-trip), and fingerprints.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.verify.config import collect_files, module_name
from repro.verify.flow.callgraph import CallGraph
from repro.verify.flow.cfg import build_cfg
from repro.verify.flow.dataflow import (
    forward_fixpoint,
    live_after,
    liveness,
    stmt_defs,
    stmt_uses,
)
from repro.verify.findings import (
    Finding,
    allowed_codes,
    format_allow,
    is_suppressed,
    parse_allow,
)
from repro.verify.flow.project import Project, walk_scope

FIXTURES = Path(__file__).resolve().parent / "flow_fixtures"


def body_of(source: str) -> list[ast.stmt]:
    return ast.parse(source).body


class TestCfg:
    def test_straight_line_is_one_block(self) -> None:
        cfg = build_cfg(body_of("a = 1\nb = a\nc = b"))
        populated = [block for block in cfg.blocks if block.stmts]
        assert len(populated) == 1
        assert len(populated[0].stmts) == 3

    def test_if_else_diamond(self) -> None:
        cfg = build_cfg(body_of("if flag:\n    a = 1\nelse:\n    a = 2\nb = a"))
        preds = cfg.preds()
        locate = cfg.locate()
        join_stmt = body_of("b = a")  # locate by position in original body
        # The statement after the If must sit in a block with two preds.
        last = None
        for block in cfg.blocks:
            for stmt in block.stmts:
                if isinstance(stmt, ast.Assign) and stmt.lineno == 5:
                    last = block.id
        assert last is not None
        assert len(preds[last]) == 2
        del join_stmt, locate

    def test_while_loop_has_back_edge(self) -> None:
        cfg = build_cfg(body_of("while n:\n    n -= 1\nd = n"))
        header = None
        for block in cfg.blocks:
            if any(isinstance(s, ast.While) for s in block.stmts):
                header = block.id
        assert header is not None
        body_blocks = [
            block.id
            for block in cfg.blocks
            if any(isinstance(s, ast.AugAssign) for s in block.stmts)
        ]
        assert len(body_blocks) == 1
        assert header in cfg.blocks[body_blocks[0]].succs

    def test_return_ends_the_path(self) -> None:
        cfg = build_cfg(body_of("return 1\nunreachable = 2"))
        for block in cfg.blocks:
            if any(isinstance(s, ast.Return) for s in block.stmts):
                assert block.succs == [cfg.exit]

    def test_try_handler_reachable_from_try_entry(self) -> None:
        cfg = build_cfg(
            body_of("try:\n    risky()\nexcept ValueError:\n    fallback()")
        )
        preds = cfg.preds()
        handler = None
        for block in cfg.blocks:
            for stmt in block.stmts:
                if (
                    isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Call)
                    and isinstance(stmt.value.func, ast.Name)
                    and stmt.value.func.id == "fallback"
                ):
                    handler = block.id
        assert handler is not None
        assert preds[handler], "handler block must be reachable"


class TestDataflow:
    def test_stmt_uses_and_defs(self) -> None:
        (stmt,) = body_of("c = a + b")
        assert stmt_uses(stmt) == frozenset({"a", "b"})
        assert stmt_defs(stmt) == frozenset({"c"})
        (aug,) = body_of("total += n")
        assert "total" in stmt_uses(aug)
        assert stmt_defs(aug) == frozenset({"total"})

    def test_liveness_across_a_branch(self) -> None:
        cfg = build_cfg(
            body_of("x = source()\nif flag:\n    use(x)\ny = 1\nreturn y")
        )
        _, live_out = liveness(cfg)
        locate = cfg.locate()
        # Find the `x = source()` statement and ask what's live after it.
        for block in cfg.blocks:
            for stmt in block.stmts:
                if isinstance(stmt, ast.Assign) and stmt.lineno == 1:
                    block_id, index = locate[id(stmt)]
                    assert "x" in live_after(cfg, live_out, block_id, index)

    def test_dead_binding_is_not_live(self) -> None:
        cfg = build_cfg(body_of("x = source()\ny = 1\nreturn y"))
        _, live_out = liveness(cfg)
        locate = cfg.locate()
        for block in cfg.blocks:
            for stmt in block.stmts:
                if isinstance(stmt, ast.Assign) and stmt.lineno == 1:
                    block_id, index = locate[id(stmt)]
                    assert "x" not in live_after(cfg, live_out, block_id, index)

    def test_forward_fixpoint_reaches_a_join(self) -> None:
        cfg = build_cfg(body_of("if flag:\n    a = 1\nelse:\n    a = 2\nb = a"))

        def transfer(block_id: int, state: frozenset) -> frozenset:
            extra = {
                stmt.lineno
                for stmt in cfg.blocks[block_id].stmts
                if isinstance(stmt, ast.Assign)
            }
            return state | frozenset(extra)

        def join(states: list) -> frozenset:
            merged: frozenset = frozenset()
            for state in states:
                merged |= state
            return merged

        in_states = forward_fixpoint(cfg, frozenset(), transfer, join)
        # The join block (line 5) must see both branch assignments.
        for block in cfg.blocks:
            for stmt in block.stmts:
                if isinstance(stmt, ast.Assign) and stmt.lineno == 5:
                    assert {2, 4} <= set(in_states[block.id])


class TestCallGraph:
    def _graph(self, paths: list[Path]) -> CallGraph:
        return CallGraph.build(Project.load(collect_files(paths)))

    def test_same_module_edges(self) -> None:
        graph = self._graph([FIXTURES / "rec" / "mutual.py"])
        assert "mutual.pong" in graph.edges.get("mutual.ping", set())
        assert "mutual.ping" in graph.edges.get("mutual.pong", set())

    def test_cycles_finds_mutual_component(self) -> None:
        graph = self._graph([FIXTURES / "rec" / "mutual.py"])
        assert ["mutual.ping", "mutual.pong"] in graph.cycles()

    def test_cycles_finds_self_loop(self) -> None:
        graph = self._graph([FIXTURES / "rec" / "direct.py"])
        assert ["direct.plain_recursive"] in graph.cycles()

    def test_cross_module_resolution(self) -> None:
        graph = self._graph([FIXTURES / "xmod"])
        assert "pkg.b.beta" in graph.edges.get("pkg.a.alpha", set())
        assert "pkg.a.alpha" in graph.edges.get("pkg.b.beta", set())

    def test_self_mutator_summary_sees_container_calls(self) -> None:
        graph = self._graph([FIXTURES / "traversal" / "trie.py"])
        assert "trie.Trie.helper_add" in graph.self_mutators
        assert "trie.Trie.insert" in graph.self_mutators
        assert "trie.Trie.iter_nodes" not in graph.self_mutators

    def test_type_env_binds_annotated_params(self) -> None:
        project = Project.load(collect_files([FIXTURES / "traversal" / "trie.py"]))
        func = project.functions["trie.mutates_during_walk"]
        assert func.scope.env.get("trie") == "trie.Trie"

    def test_walk_scope_skips_nested_defs(self) -> None:
        tree = body_of("def outer():\n    def inner():\n        hidden()\n    x = 1")
        calls = [
            node
            for node in walk_scope(tree[0].body)  # type: ignore[attr-defined]
            if isinstance(node, ast.Call)
        ]
        assert calls == []


class TestModuleNames:
    def test_package_walk_stops_at_missing_init(self) -> None:
        path = FIXTURES / "xmod" / "pkg" / "a.py"
        assert module_name(path) == "pkg.a"

    def test_plain_file_is_its_stem(self) -> None:
        assert module_name(FIXTURES / "rec" / "mutual.py") == "mutual"


class TestSuppression:
    def test_parse_single_and_multiple(self) -> None:
        assert parse_allow("x = 1  # repro: allow[REPRO007]") == frozenset(
            {"REPRO007"}
        )
        assert parse_allow("# repro: allow[REPRO008, REPRO010]") == frozenset(
            {"REPRO008", "REPRO010"}
        )

    def test_line_above_applies(self) -> None:
        lines = ["# repro: allow[REPRO009]", "mutate()"]
        assert is_suppressed(lines, 2, "REPRO009")
        assert not is_suppressed(lines, 2, "REPRO007")

    def test_unmarked_line_is_not_suppressed(self) -> None:
        assert allowed_codes(["plain()"], 1) == frozenset()

    def test_format_round_trips(self) -> None:
        codes = {"REPRO012", "REPRO007"}
        assert parse_allow(format_allow(codes)) == frozenset(codes)


class TestSuppressionProperty:
    hypothesis = pytest.importorskip("hypothesis")

    def test_round_trip_arbitrary_codes(self) -> None:
        from hypothesis import given
        from hypothesis import strategies as st

        code = st.from_regex(r"[A-Z][A-Z0-9_]{0,11}", fullmatch=True)

        @given(st.sets(code, min_size=1, max_size=6))
        def round_trip(codes: set) -> None:
            comment = format_allow(codes)
            assert parse_allow(comment) == frozenset(codes)
            assert allowed_codes([comment], 1) == frozenset(codes)
            assert allowed_codes(["target()", comment], 1) == frozenset()
            assert allowed_codes([comment, "target()"], 2) == frozenset(codes)

        round_trip()


class TestFingerprint:
    def _finding(self, message: str = "boom") -> Finding:
        return Finding(
            rule="REPRO008",
            path="src/x.py",
            line=10,
            symbol="x.f",
            message=message,
        )

    def test_fingerprint_is_line_number_free(self) -> None:
        moved = Finding(
            rule="REPRO008",
            path="src/x.py",
            line=99,
            symbol="x.f",
            message="boom",
        )
        assert self._finding().fingerprint() == moved.fingerprint()

    def test_fingerprint_varies_with_message(self) -> None:
        assert (
            self._finding("boom").fingerprint()
            != self._finding("bang").fingerprint()
        )
