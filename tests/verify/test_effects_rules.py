"""Rule-level tests for the effects analyzer, driven by the fixture tree.

Mirrors ``test_flow_rules.py``: every rule gets a positive case, a
negative (clean-variant) case, and a suppressed case from
``effects_fixtures/``. Fixtures are analyzed, never imported.
"""

from __future__ import annotations

from pathlib import Path

from repro.verify.effects.rules import SPECS
from repro.verify.engine import analyze

FIXTURES = Path(__file__).resolve().parent / "effects_fixtures"


def symbols(findings) -> list[str]:
    return [finding.symbol for finding in findings]


def run(subdir: str, rule: str):
    return analyze([FIXTURES / subdir], select=frozenset({rule}))


class TestBlockingInAsync:
    def test_direct_and_transitive_blocking_reported(self) -> None:
        findings = run("asyncio", "REPRO013")
        assert "blocking.poll_direct" in symbols(findings)
        assert "blocking.fetch_transitive" in symbols(findings)

    def test_transitive_message_names_the_route(self) -> None:
        (finding,) = [
            f
            for f in run("asyncio", "REPRO013")
            if f.symbol == "blocking.fetch_transitive"
        ]
        assert "via blocking._spawn_helper" in finding.message
        assert "subprocess.run" in finding.message

    def test_awaiting_async_code_is_clean(self) -> None:
        assert "blocking.awaits_properly" not in symbols(run("asyncio", "REPRO013"))

    def test_sync_sleeper_is_clean(self) -> None:
        assert "blocking.sync_sleeper" not in symbols(run("asyncio", "REPRO013"))

    def test_suppression_waives_the_block(self) -> None:
        assert "blocking.waived" not in symbols(run("asyncio", "REPRO013"))

    # -- the daemon idioms (tests/verify/effects_fixtures/asyncio/
    #    daemon_idioms.py): what hosting an event loop must not do, and
    #    what repro.daemon actually does and must stay clean.

    def test_daemon_handler_file_io_reported(self) -> None:
        reported = symbols(run("asyncio", "REPRO013"))
        assert "daemon_idioms.handler_reads_file" in reported
        assert "daemon_idioms.handler_reads_path" in reported

    def test_daemon_transitive_sleep_reported(self) -> None:
        findings = [
            f
            for f in run("asyncio", "REPRO013")
            if f.symbol == "daemon_idioms.feeder_naps"
        ]
        assert len(findings) >= 1
        assert any("via daemon_idioms._pace" in f.message for f in findings)

    def test_daemon_blocking_connect_reported(self) -> None:
        assert "daemon_idioms.handler_dials_out" in symbols(
            run("asyncio", "REPRO013")
        )

    def test_daemon_consumer_and_stream_idioms_clean(self) -> None:
        reported = symbols(run("asyncio", "REPRO013"))
        assert "daemon_idioms.consumer_yields" not in reported
        assert "daemon_idioms.responds_over_stream" not in reported
        assert "daemon_idioms.connects_with_asyncio" not in reported

    def test_print_is_io_not_blocking(self) -> None:
        assert "daemon_idioms.logs_inline" not in symbols(
            run("asyncio", "REPRO013")
        )

    def test_sync_entry_point_file_io_clean(self) -> None:
        """The ``__main__`` shape: load traces before the loop starts."""
        assert "daemon_idioms.load_then_serve" not in symbols(
            run("asyncio", "REPRO013")
        )

    def test_daemon_suppression_waives(self) -> None:
        assert "daemon_idioms.waived_shell" not in symbols(
            run("asyncio", "REPRO013")
        )


class TestSeamBypass:
    def test_clock_rng_and_unseeded_random_reported(self) -> None:
        reported = symbols(run("seam", "REPRO014"))
        assert "bypass.measures_wall_clock" in reported
        assert "bypass.draws_global_rng" in reported
        assert "bypass.builds_unseeded" in reported

    def test_seeded_construction_is_clean(self) -> None:
        assert "bypass.builds_seeded" not in symbols(run("seam", "REPRO014"))

    def test_injected_clock_default_is_the_blessed_seam(self) -> None:
        assert "bypass.injected_clock" not in symbols(run("seam", "REPRO014"))

    def test_rng_parameter_idiom_is_clean(self) -> None:
        reported = symbols(run("seam", "REPRO014"))
        assert "bypass.threads_rng" not in reported
        assert "bypass.shadowed" not in reported

    def test_faults_package_is_blessed(self) -> None:
        assert not any("chaos" in sym for sym in symbols(run("seam", "REPRO014")))

    def test_suppression_waives_the_read(self) -> None:
        assert "bypass.waived_read" not in symbols(run("seam", "REPRO014"))

    def test_message_explains_the_seam(self) -> None:
        (finding,) = [
            f
            for f in run("seam", "REPRO014")
            if f.symbol == "bypass.measures_wall_clock"
        ]
        assert "inject the clock" in finding.message


class TestShardEscape:
    """REPRO015, ``tenant-escape``: its entry points are SmaltaManager's
    public methods, which every daemon tenant calls."""

    def test_state_written_from_two_manager_entries_reported(self) -> None:
        findings = run("shard", "REPRO015")
        assert "escape.SHARED_INDEX" in symbols(findings)

    def test_message_names_the_entry_points(self) -> None:
        (finding,) = [
            f for f in run("shard", "REPRO015") if f.symbol == "escape.SHARED_INDEX"
        ]
        assert "escape.SmaltaManager.apply" in finding.message
        assert "escape.SmaltaManager.snapshot_now" in finding.message
        assert "2 tenant entry points" in finding.message

    def test_single_writer_state_is_clean(self) -> None:
        assert "escape.SINGLE_WRITER_LOG" not in symbols(run("shard", "REPRO015"))

    def test_suppression_at_the_binding_waives_it(self) -> None:
        assert "escape.WAIVED_POOL" not in symbols(run("shard", "REPRO015"))

    def test_finding_anchors_at_the_binding_line(self) -> None:
        (finding,) = [
            f for f in run("shard", "REPRO015") if f.symbol == "escape.SHARED_INDEX"
        ]
        assert finding.path.endswith("escape.py")
        assert finding.line == 3

    def test_packed_stride_cache_escape_reported(self) -> None:
        """The packed-rebuild failure mode: module-level stride arrays
        shared "to reuse allocations" get patched from two manager
        entry points — tenants sharing the process would corrupt them."""
        findings = run("shard", "REPRO015")
        assert "packed_tables.STRIDE_CACHE" in symbols(findings)
        (finding,) = [
            f for f in findings if f.symbol == "packed_tables.STRIDE_CACHE"
        ]
        assert "packed_tables.SmaltaManager.apply" in finding.message
        assert "packed_tables.SmaltaManager.snapshot_now" in finding.message

    def test_packed_instance_arrays_and_telemetry_are_clean(self) -> None:
        reported = symbols(run("shard", "REPRO015"))
        assert "packed_tables.REBUILD_COUNTS" not in reported


class TestImpureSnapshotPath:
    def test_io_and_rng_reachable_from_roots_reported(self) -> None:
        findings = run("snap", "REPRO017")
        reported = symbols(findings)
        assert "impure.snapshot" in reported
        assert "impure.ortc_table" in reported

    def test_witness_chain_in_message(self) -> None:
        io_findings = [
            f
            for f in run("snap", "REPRO017")
            if f.symbol == "impure.snapshot" and "print()" in f.message
        ]
        assert len(io_findings) == 1
        assert "via impure._log_line" in io_findings[0].message

    def test_pure_snapshot_is_clean(self) -> None:
        reported = symbols(run("snap", "REPRO017"))
        assert "pure.snapshot_now" not in reported
        assert "pure.unrelated_name" not in reported

    def test_suppression_waives_the_root(self) -> None:
        assert "waived.snapshot" not in symbols(run("snap", "REPRO017"))

    def test_packed_rebuild_impurities_reported(self) -> None:
        """The packed-rebuild failure modes: paint-order salting (rng)
        and paint-progress logging (io) reachable from snapshot roots."""
        findings = run("snap", "REPRO017")
        reported = symbols(findings)
        assert "packed_rebuild.snapshot" in reported
        assert "packed_rebuild.ortc_table" in reported
        io_findings = [
            f
            for f in findings
            if f.symbol == "packed_rebuild.snapshot"
            and "via packed_rebuild._paint_range" in f.message
        ]
        assert len(io_findings) == 1

    def test_packed_pure_rebuild_is_clean(self) -> None:
        assert "packed_rebuild.snapshot_now" not in symbols(
            run("snap", "REPRO017")
        )


class TestCatalogAndRepo:
    def test_rule_catalog_is_complete(self) -> None:
        assert sorted(spec.code for spec in SPECS) == [
            "REPRO013",
            "REPRO014",
            "REPRO015",
            "REPRO017",
        ]
        for spec in SPECS:
            assert spec.summary
