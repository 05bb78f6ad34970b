"""Rule-level tests for the flow analyzer, driven by the fixture tree.

Every rule gets three kinds of coverage from ``flow_fixtures/``: a
positive case (the defect is reported), a negative case (the clean
variant stays silent), and a suppressed case (an inline
``# repro: allow[...]`` waives it). The fixtures are analyzed, never
imported.
"""

from __future__ import annotations

from pathlib import Path

from repro.verify.engine import analyze
from repro.verify.flow.rules import SPECS

FIXTURES = Path(__file__).resolve().parent / "flow_fixtures"


def symbols(findings) -> list[str]:
    return [finding.symbol for finding in findings]


def run(subdir: str, rule: str, **kwargs):
    return analyze([FIXTURES / subdir], select=frozenset({rule}), **kwargs)


class TestRecursionCycles:
    def test_mutual_and_direct_cycles_reported(self) -> None:
        findings = run("rec", "REPRO007")
        assert symbols(findings) == ["direct.plain_recursive", "mutual.ping"]
        assert all(finding.rule == "REPRO007" for finding in findings)

    def test_cycle_message_names_both_members(self) -> None:
        (finding,) = [
            finding
            for finding in run("rec", "REPRO007")
            if finding.symbol == "mutual.ping"
        ]
        assert "mutual.ping" in finding.message
        assert "mutual.pong" in finding.message

    def test_iterative_function_is_clean(self) -> None:
        assert not any("iterative" in sym for sym in symbols(run("rec", "REPRO007")))

    def test_suppression_waives_the_cycle(self) -> None:
        assert not any("waived" in sym for sym in symbols(run("rec", "REPRO007")))

    def test_cross_module_cycle_via_imports(self) -> None:
        findings = run("xmod", "REPRO007")
        assert symbols(findings) == ["pkg.a.alpha"]
        assert "pkg.b.beta" in findings[0].message

    def test_direct_recursion_reported_once(self) -> None:
        direct = FIXTURES / "rec" / "direct.py"
        findings = analyze([direct])
        assert [(finding.rule, finding.line) for finding in findings] == [
            ("REPRO007", 4)
        ]


class TestNestedRecursion:
    """Recursion inside nested defs and lambdas, which the call graph
    does not index, is reported on the enclosing project function."""

    def test_nested_walker_reported_on_its_function(self) -> None:
        findings = run("nested", "REPRO007")
        assert symbols(findings) == [
            "walkers.snapshot",
            "walkers.Counter.total",
            "walkers.Counter.depth",
            "walkers.outer",
        ]
        (walk,) = [f for f in findings if f.symbol == "walkers.snapshot"]
        assert "nested def walk()" in walk.message
        assert walk.line == 10  # the def line of snapshot, once per walker

    def test_self_call_and_outer_name_from_nested_scope(self) -> None:
        findings = run("nested", "REPRO007")
        for symbol in ("walkers.Counter.depth", "walkers.outer"):
            (finding,) = [f for f in findings if f.symbol == symbol]
            assert "calls itself from a nested scope" in finding.message

    def test_lexical_resolution_and_helpers_are_clean(self) -> None:
        reported = symbols(run("nested", "REPRO007"))
        assert not any(symbol.startswith("clean.") for symbol in reported)

    def test_suppression_waives_the_nested_walker(self) -> None:
        reported = symbols(run("nested", "REPRO007"))
        assert not any("waived" in sym for sym in reported)


class TestDroppedDelta:
    def test_bare_discard_and_dead_binding_reported(self) -> None:
        findings = run("delta", "REPRO008")
        assert symbols(findings) == [
            "drops.drops_directly",
            "drops.binds_and_forgets",
            "script",
        ]

    def test_module_level_drop_reported(self) -> None:
        (finding,) = [
            finding
            for finding in run("delta", "REPRO008")
            if finding.symbol == "script"
        ]
        assert "script.burst" in finding.message

    def test_consumers_are_clean(self) -> None:
        clean = {"drops.consumes", "drops.binds_and_uses", "drops.branch_consumes"}
        assert clean.isdisjoint(symbols(run("delta", "REPRO008")))

    def test_suppression_waives_the_drop(self) -> None:
        assert "drops.waived" not in symbols(run("delta", "REPRO008"))


class TestMutatingTraversal:
    def test_direct_and_helper_mutations_reported(self) -> None:
        findings = run("traversal", "REPRO009")
        assert symbols(findings) == [
            "trie.mutates_during_walk",
            "trie.mutates_via_helper",
        ]

    def test_helper_found_through_self_mutator_summary(self) -> None:
        """helper_add is not in the mutator-name list; only the
        transitive writes-self-attributes summary can flag it."""
        (finding,) = [
            finding
            for finding in run("traversal", "REPRO009")
            if finding.symbol == "trie.mutates_via_helper"
        ]
        assert "helper_add" in finding.message

    def test_materialized_iteration_is_clean(self) -> None:
        assert "trie.safe_materialized" not in symbols(run("traversal", "REPRO009"))

    def test_suppression_waives_the_mutation(self) -> None:
        assert "trie.waived" not in symbols(run("traversal", "REPRO009"))


class TestTypestate:
    def test_load_after_live_and_use_after_close_reported(self) -> None:
        findings = run("typestate", "REPRO010")
        assert symbols(findings) == [
            "states.load_after_live_bad",
            "states.use_after_close_bad",
        ]

    def test_messages_name_protocol_and_method(self) -> None:
        by_symbol = {finding.symbol: finding for finding in run("typestate", "REPRO010")}
        assert "SmaltaState" in by_symbol["states.load_after_live_bad"].message
        assert "load" in by_symbol["states.load_after_live_bad"].message
        assert "DownloadChannel" in by_symbol["states.use_after_close_bad"].message

    def test_may_violation_stays_silent(self) -> None:
        # close() on one branch only: the rule reports must-violations.
        assert "states.branch_dependent" not in symbols(run("typestate", "REPRO010"))

    def test_rebinding_resets_the_state(self) -> None:
        assert "states.reopen_by_rebinding" not in symbols(run("typestate", "REPRO010"))

    def test_suppression_waives_the_violation(self) -> None:
        assert "states.waived" not in symbols(run("typestate", "REPRO010"))


class TestSwallowedFailure:
    def test_silent_and_bare_handlers_reported(self) -> None:
        findings = run("swallow", "REPRO011")
        assert symbols(findings) == [
            "handlers.swallows_silently",
            "handlers.swallows_bare",
        ]

    def test_reraise_log_and_propagate_are_clean(self) -> None:
        clean = {"handlers.reraises", "handlers.logs", "handlers.propagates_object"}
        assert clean.isdisjoint(symbols(run("swallow", "REPRO011")))

    def test_unwatched_exception_is_ignored(self) -> None:
        assert "handlers.unrelated_is_fine" not in symbols(run("swallow", "REPRO011"))

    def test_suppression_waives_the_handler(self) -> None:
        assert "handlers.waived" not in symbols(run("swallow", "REPRO011"))


class TestMetricDrift:
    def test_both_drift_directions_reported(self) -> None:
        findings = run(
            "metrics",
            "REPRO012",
            metrics_docs=[FIXTURES / "metrics" / "CATALOG.md"],
        )
        assert symbols(findings) == [
            "fixture_ghost_total",
            "fixture_undocumented_depth",
        ]
        ghost, undocumented = findings
        assert ghost.path.endswith("CATALOG.md")
        assert undocumented.path.endswith("code.py")

    def test_matching_series_is_clean(self) -> None:
        findings = run(
            "metrics",
            "REPRO012",
            metrics_docs=[FIXTURES / "metrics" / "CATALOG.md"],
        )
        assert "fixture_ops_total" not in symbols(findings)


class TestWholeRepo:
    def test_rule_catalogue_is_complete(self) -> None:
        assert sorted(spec.code for spec in SPECS) == [
            "REPRO007",
            "REPRO008",
            "REPRO009",
            "REPRO010",
            "REPRO011",
            "REPRO012",
        ]
        for spec in SPECS:
            assert spec.name
            assert spec.summary
