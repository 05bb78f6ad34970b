"""Rule-level tests for the interleave analyzer, fixture-driven.

Mirrors ``tests/verify/test_effects_rules.py``: every rule gets
positive (daemon-idiom), negative (queue-routed / gathered /
TaskGroup-style), and suppressed cases from ``interleave_fixtures/``.
Fixtures are analyzed, never imported.
"""

from __future__ import annotations

from pathlib import Path

from repro.verify.engine import analyze
from repro.verify.interleave.rules import SPECS

FIXTURES = Path(__file__).resolve().parent / "interleave_fixtures"


def symbols(findings) -> list[str]:
    return [finding.symbol for finding in findings]


def run(subdir: str, rule: str):
    return analyze([FIXTURES / subdir], select=frozenset({rule}))


class TestTornInvariant:
    def test_guard_satisfied_after_await_reported(self) -> None:
        findings = run("rmw", "REPRO018")
        assert "torn.Daemon.start_guard_races" in symbols(findings)

    def test_guard_message_names_the_segments(self) -> None:
        (finding,) = [
            f
            for f in run("rmw", "REPRO018")
            if f.symbol == "torn.Daemon.start_guard_races"
        ]
        assert "segment 0" in finding.message
        assert "segment 2" in finding.message

    def test_single_statement_and_augmented_rmw_reported(self) -> None:
        reported = symbols(run("rmw", "REPRO018"))
        assert "torn.Daemon.one_statement_rmw" in reported
        assert "torn.Daemon.augmented_rmw" in reported

    def test_stale_alias_writeback_reported(self) -> None:
        (finding,) = [
            f
            for f in run("rmw", "REPRO018")
            if f.symbol == "torn.Daemon.stale_alias_writeback"
        ]
        assert "'snapshot'" in finding.message

    def test_synchronous_claim_with_cleanup_unwind_is_clean(self) -> None:
        assert "clean.Daemon.synchronous_claim" not in symbols(
            run("rmw", "REPRO018")
        )

    def test_read_only_and_write_first_shapes_are_clean(self) -> None:
        reported = symbols(run("rmw", "REPRO018"))
        assert "clean.Daemon.read_before_await_only" not in reported
        assert "clean.Daemon.write_then_guard" not in reported

    def test_sync_functions_cannot_tear(self) -> None:
        assert "clean.Daemon.sync_guard_and_write" not in symbols(
            run("rmw", "REPRO018")
        )

    def test_suppression_waives_the_guard(self) -> None:
        assert "waived.Sampler.waived_guard" not in symbols(
            run("rmw", "REPRO018")
        )


class TestFireAndForget:
    def test_discarded_spawn_reported(self) -> None:
        assert "forget.discarded_on_the_spot" in symbols(
            run("tasks", "REPRO019")
        )

    def test_cancel_only_handles_reported(self) -> None:
        (finding,) = [
            f
            for f in run("tasks", "REPRO019")
            if f.symbol == "forget.cancel_only_replay"
        ]
        assert "'feeders'" in finding.message
        assert "cancel()" in finding.message

    def test_awaited_gathered_and_callback_sinks_are_clean(self) -> None:
        reported = symbols(run("tasks", "REPRO019"))
        assert "kept.awaited_inline" not in reported
        assert "kept.gathered_after_cancel" not in reported
        assert "kept.callback_sink" not in reported
        assert "kept.returned_to_caller" not in reported

    def test_task_group_spawns_are_structured(self) -> None:
        assert "kept.task_group_children" not in symbols(
            run("tasks", "REPRO019")
        )

    def test_attribute_stored_handle_is_retained(self) -> None:
        assert "kept.Owner.stored_on_self" not in symbols(
            run("tasks", "REPRO019")
        )

    def test_suppression_blesses_the_telemetry_task(self) -> None:
        assert "waived.blessed_telemetry" not in symbols(
            run("tasks", "REPRO019")
        )


class TestUnawaitedCoroutine:
    def test_dropped_coroutines_reported_in_async_and_sync(self) -> None:
        reported = symbols(run("coro", "REPRO020"))
        assert "dropped.forgets_the_await" in reported
        assert "dropped.sync_caller_drops_it" in reported

    def test_message_names_the_callee(self) -> None:
        (finding,) = [
            f
            for f in run("coro", "REPRO020")
            if f.symbol == "dropped.forgets_the_await"
        ]
        assert "dropped.flush_metrics" in finding.message

    def test_awaited_scheduled_and_bound_are_clean(self) -> None:
        reported = symbols(run("coro", "REPRO020"))
        assert "handled.awaits_properly" not in reported
        assert "handled.schedules_it" not in reported
        assert "handled.binds_the_coroutine" not in reported

    def test_sync_helpers_and_async_generators_are_clean(self) -> None:
        reported = symbols(run("coro", "REPRO020"))
        assert "handled.calls_sync_helper" not in reported
        assert "handled.iterates_generator" not in reported

    def test_suppression_waives_the_drop(self) -> None:
        assert "waived.waived_drop" not in symbols(run("coro", "REPRO020"))

    def test_drop_inside_an_except_handler_reported(self, tmp_path) -> None:
        (tmp_path / "cleanup.py").write_text(
            "async def flush() -> None:\n"
            "    pass\n"
            "\n"
            "\n"
            "async def guarded() -> None:\n"
            "    try:\n"
            "        await flush()\n"
            "    except OSError:\n"
            "        flush()\n",
            encoding="utf-8",
        )
        findings = analyze([tmp_path], select=frozenset({"REPRO020"}))
        assert [(f.symbol, f.line) for f in findings] == [("cleanup.guarded", 9)]


class TestBlockingWhileHeld:
    def test_blocking_calls_under_lock_reported(self) -> None:
        reported = symbols(run("held", "REPRO021"))
        assert "held.Pipeline.blocks_under_lock" in reported
        assert "held.Pipeline.reads_file_under_lock" in reported

    def test_unbounded_wait_under_lock_reported(self) -> None:
        (finding,) = [
            f
            for f in run("held", "REPRO021")
            if f.symbol == "held.Pipeline.unbounded_wait_under_lock"
        ]
        assert "unbounded await" in finding.message
        assert "async with self._lock" in finding.message

    def test_blocking_inside_consumer_window_reported(self) -> None:
        (finding,) = [
            f
            for f in run("held", "REPRO021")
            if f.symbol == "held.Pipeline.blocking_consumer"
        ]
        assert "consumer window" in finding.message

    def test_work_outside_and_bounded_waits_are_clean(self) -> None:
        reported = symbols(run("held", "REPRO021"))
        assert "clean.Pipeline.blocks_outside_lock" not in reported
        assert "clean.Pipeline.bounded_wait_under_lock" not in reported
        assert "clean.Pipeline.consumer_applies_in_memory" not in reported

    def test_suppression_waives_the_block(self) -> None:
        assert "waived.Pipeline.waived_block" not in symbols(
            run("held", "REPRO021")
        )


class TestCancellationUnsafe:
    def test_bare_base_and_cancelled_handlers_reported(self) -> None:
        reported = symbols(run("cancel", "REPRO022"))
        assert "swallow.Consumer.bare_except_loop" in reported
        assert "swallow.Consumer.base_exception_pass" in reported
        assert "swallow.Consumer.eats_cancellation" in reported

    def test_acquire_without_finally_release_reported(self) -> None:
        (finding,) = [
            f
            for f in run("cancel", "REPRO022")
            if f.symbol == "swallow.Consumer.acquire_without_finally"
        ]
        assert "acquire()" in finding.message
        assert "finally" in finding.message

    def test_exception_only_handler_is_the_blessed_idiom(self) -> None:
        assert "clean.Consumer.catches_exception_only" not in symbols(
            run("cancel", "REPRO022")
        )

    def test_reraising_handlers_are_clean(self) -> None:
        reported = symbols(run("cancel", "REPRO022"))
        assert "clean.Consumer.reraises_bare" not in reported
        assert "clean.Consumer.reraises_named" not in reported

    def test_acquire_with_finally_release_is_clean(self) -> None:
        assert "clean.Consumer.acquire_with_finally" not in symbols(
            run("cancel", "REPRO022")
        )

    def test_sync_bare_except_is_out_of_scope(self) -> None:
        assert "clean.Consumer.sync_bare_except" not in symbols(
            run("cancel", "REPRO022")
        )

    def test_suppression_waives_the_handler(self) -> None:
        assert "waived.Consumer.waived_swallow" not in symbols(
            run("cancel", "REPRO022")
        )


class TestCrossTaskAliasing:
    def test_handlers_writing_consumer_state_reported(self) -> None:
        reported = symbols(run("alias", "REPRO023"))
        assert "shared.Pipeline.handle_resync" in reported
        assert "shared.Pipeline.handle_reset_stats" in reported

    def test_message_names_attr_and_consumer(self) -> None:
        (finding,) = [
            f
            for f in run("alias", "REPRO023")
            if f.symbol == "shared.Pipeline.handle_resync"
        ]
        assert "self._position" in finding.message
        assert "_consume" in finding.message
        assert "queue" in finding.message

    def test_transitive_consumer_writes_are_in_the_write_set(self) -> None:
        # _position/_applied are written by _apply, reached from
        # _consume via self — the closure, not just the entry method.
        assert "shared.Pipeline.handle_reset_stats" in symbols(
            run("alias", "REPRO023")
        )

    def test_queue_routed_handler_is_clean(self) -> None:
        assert "routed.Pipeline.handle_resync" not in symbols(
            run("alias", "REPRO023")
        )

    def test_sync_writers_and_unspawned_classes_are_clean(self) -> None:
        reported = symbols(run("alias", "REPRO023"))
        assert "routed.Pipeline.sync_adjust" not in reported
        assert "routed.NoTask.writer_a" not in reported
        assert "routed.NoTask.writer_b" not in reported

    def test_suppression_waives_the_write(self) -> None:
        assert "waived.Pipeline.waived_rewind" not in symbols(
            run("alias", "REPRO023")
        )


class TestCatalogAndRepo:
    def test_rule_catalog_is_complete(self) -> None:
        assert sorted(spec.code for spec in SPECS) == [
            "REPRO018",
            "REPRO019",
            "REPRO020",
            "REPRO021",
            "REPRO022",
            "REPRO023",
        ]
        for spec in SPECS:
            assert spec.summary

    def test_messages_carry_no_line_numbers(self) -> None:
        # Fingerprints hash the message: positions must be phrased as
        # await segments, never source lines, or fingerprints churn.
        for subdir, rule in (
            ("rmw", "REPRO018"),
            ("tasks", "REPRO019"),
            ("coro", "REPRO020"),
            ("held", "REPRO021"),
            ("cancel", "REPRO022"),
            ("alias", "REPRO023"),
        ):
            for finding in run(subdir, rule):
                assert "line" not in finding.message
