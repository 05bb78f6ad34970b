"""Golden-trace regression: frozen end-to-end numbers for a checked-in trace.

``tests/data/golden_table.txt`` (400 prefixes) and
``tests/data/golden_trace.txt`` (600 updates in 12 bursts of 50,
flap-heavy) were generated once with seed 20110712 and committed. The
expected ``SmaltaManager.summary()`` values below are *frozen*: a perf
refactor that changes any of them — download counts, FIB sizes, snapshot
burst sizes — has changed observable behaviour, not just speed, and must
either be a bug or justify updating these numbers explicitly in review.

The sequential and batched paths are both pinned. They share every
snapshot number (snapshots trigger at the same update counts and ORTC is
deterministic) and differ exactly where coalescing says they must:
per-update downloads (595 sequential vs 53 batched, the ~11x reduction
the batch engine exists for).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.downloads import DownloadLog
from repro.core.equivalence import semantically_equivalent
from repro.core.manager import SmaltaManager
from repro.core.policy import PeriodicUpdateCountPolicy
from repro.net.update import iter_bursts
from repro.obs.export import (
    flatten_samples,
    parse_prometheus,
    registry_to_dict,
    render_json,
    render_prometheus,
)
from repro.workloads.trace_io import load_table, load_trace

DATA = Path(__file__).resolve().parent.parent / "data"

SNAPSHOT_SPACING = 100

EXPECTED_COMMON = {
    "updates_received": 600,
    "ot_size": 390,
    "fib_size": 208,
    "snapshot_downloads": 279,
    "snapshots": 7,
    "mean_snapshot_burst": pytest.approx(279 / 7),
    "audits_run": 0,
}
EXPECTED_SNAPSHOT_BURSTS = [204, 8, 15, 7, 15, 9, 21]
EXPECTED_SEQUENTIAL_UPDATE_DOWNLOADS = 595
EXPECTED_BATCH_UPDATE_DOWNLOADS = 53

# Frozen metrics snapshot: every workload-deterministic counter the
# registry holds after the replay (latency histograms are excluded —
# their durations are wall-clock). Same freeze rule as the summary
# numbers above: a change here is a behaviour change, not a speedup.
EXPECTED_COUNTERS_COMMON = {
    "smalta_audit_violations_total": 0,
    "smalta_audits_total": 0,
    'smalta_fib_downloads_total{cause="snapshot"}': 279,
    "smalta_snapshots_total": 7,
    "smalta_updates_queued_total": 0,
    "smalta_updates_received_total": 600,
}
EXPECTED_COUNTERS_SEQUENTIAL = {
    **EXPECTED_COUNTERS_COMMON,
    'smalta_fib_downloads_total{cause="update"}': 595,
    "smalta_inserts_total": 400,
    "smalta_deletes_total": 200,
    "smalta_reclaim_calls_total": 521,
    "smalta_at_label_changes_total": 641,
    "smalta_batches_total": 0,
    "smalta_batch_updates_total": 0,
    "smalta_batch_net_ops_total": 0,
    "smalta_batch_skipped_total": 0,
}
EXPECTED_COUNTERS_BATCHED = {
    **EXPECTED_COUNTERS_COMMON,
    'smalta_fib_downloads_total{cause="update"}': 53,
    # Coalescing in one view: 600 updates shrink to 72 net per-prefix
    # operations (47 announces + 20 withdraws + 5 absent-OT withdraws
    # skipped), so the algorithms run 67 times instead of 600.
    "smalta_inserts_total": 47,
    "smalta_deletes_total": 20,
    "smalta_reclaim_calls_total": 48,
    "smalta_at_label_changes_total": 57,
    "smalta_batches_total": 12,
    "smalta_batch_updates_total": 600,
    "smalta_batch_net_ops_total": 72,
    "smalta_batch_skipped_total": 5,
}
EXPECTED_GAUGES = {
    "smalta_at_size": 208,
    "smalta_ot_size": 390,
    "smalta_updates_since_snapshot": 0,
}
# smalta_snapshot_burst_size per-bucket counts over SIZE_BUCKETS: the
# bursts [204, 8, 15, 7, 15, 9, 21] land in (5,10]x3, (10,25]x3,
# (100,250]x1.
EXPECTED_BURST_BUCKET_COUNTS = [0, 0, 0, 3, 3, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]


@pytest.fixture(scope="module")
def golden():
    table, registry = load_table(DATA / "golden_table.txt")
    trace, _ = load_trace(DATA / "golden_trace.txt", registry)
    assert len(table) == 400 and len(trace) == 600
    return table, trace


def fresh_manager(table) -> SmaltaManager:
    manager = SmaltaManager(
        width=32, policy=PeriodicUpdateCountPolicy(SNAPSHOT_SPACING)
    )
    for prefix, nexthop in table.items():
        manager.state.load(prefix, nexthop)
    manager.end_of_rib()
    return manager


def check_common(manager: SmaltaManager) -> None:
    summary = manager.summary()
    for key, expected in EXPECTED_COMMON.items():
        assert summary[key] == expected, (key, summary[key], expected)
    assert manager.log.snapshot_bursts == EXPECTED_SNAPSHOT_BURSTS
    assert semantically_equivalent(
        manager.state.ot_table(), manager.fib_table(), 32
    )


def test_golden_sequential(golden):
    table, trace = golden
    manager = fresh_manager(table)
    for update in trace:
        manager.apply(update)
    check_common(manager)
    assert (
        manager.summary()["update_downloads"]
        == EXPECTED_SEQUENTIAL_UPDATE_DOWNLOADS
    )


def test_golden_batched(golden):
    table, trace = golden
    manager = fresh_manager(table)
    bursts = list(iter_bursts(trace, max_gap_s=0.02))
    assert len(bursts) == 12 and all(len(b) == 50 for b in bursts)
    for burst in bursts:
        manager.apply_batch(burst)
    check_common(manager)
    assert (
        manager.summary()["update_downloads"] == EXPECTED_BATCH_UPDATE_DOWNLOADS
    )


def check_metrics(manager: SmaltaManager, expected_counters: dict) -> None:
    registry = manager.obs.registry
    from repro.obs.registry import Counter, Gauge

    # The packed-patch series exist only when $SMALTA_BACKEND selects
    # that backend (the CI matrix leg); they are implementation
    # telemetry, not workload behaviour, so the freeze skips them.
    counters = {
        i.key: int(i.value)
        for i in registry.collect()
        if isinstance(i, Counter)
        and not i.key.startswith("smalta_packed")
    }
    assert counters == expected_counters
    gauges = {
        i.key: int(i.value)
        for i in registry.collect()
        if isinstance(i, Gauge)
        and not i.key.startswith("smalta_packed")
    }
    assert gauges == EXPECTED_GAUGES
    burst_hist = registry.get("smalta_snapshot_burst_size")
    assert burst_hist is not None
    assert burst_hist.bucket_counts == EXPECTED_BURST_BUCKET_COUNTS
    assert burst_hist.count == 7 and burst_hist.sum == 279


def test_golden_metrics_sequential(golden):
    table, trace = golden
    manager = fresh_manager(table)
    for update in trace:
        manager.apply(update)
    check_metrics(manager, EXPECTED_COUNTERS_SEQUENTIAL)
    assert manager.obs.events.counts()["snapshot"] == 7


def test_golden_metrics_batched(golden):
    table, trace = golden
    manager = fresh_manager(table)
    for burst in iter_bursts(trace, max_gap_s=0.02):
        manager.apply_batch(burst)
    check_metrics(manager, EXPECTED_COUNTERS_BATCHED)
    assert manager.obs.events.counts() == {"snapshot": 7, "batch_drain": 12}


def test_golden_exporters_round_trip(golden):
    """Both exporters reproduce the golden run's registry exactly."""
    table, trace = golden
    manager = fresh_manager(table)
    for update in trace:
        manager.apply(update)
    registry = manager.obs.registry
    # Prometheus: render → parse equals the flattened sample map.
    assert parse_prometheus(render_prometheus(registry)) == flatten_samples(
        registry
    )
    # JSON: render → loads equals the structural dump, and the frozen
    # counters are visible through it.
    dump = json.loads(render_json(registry))
    assert dump == registry_to_dict(registry)
    assert dump["counters"]["smalta_updates_received_total"] == 600
    assert dump["counters"]['smalta_fib_downloads_total{cause="update"}'] == 595


def test_golden_paths_agree(golden):
    """Beyond the frozen numbers: the two paths' final FIBs forward alike."""
    table, trace = golden
    seq = fresh_manager(table)
    for update in trace:
        seq.apply(update)
    bat = fresh_manager(table)
    for burst in iter_bursts(trace, max_gap_s=0.02):
        bat.apply_batch(burst)
    assert seq.state.ot_table() == bat.state.ot_table()
    assert semantically_equivalent(seq.fib_table(), bat.fib_table(), 32)


# -- packed backend: same trace, same frozen numbers, same bytes -----------
#
# The golden numbers above were frozen on the single reference trie. The
# packed backend must not move a single one of them — and beyond the
# summary, its download *stream* (every FibDownload, in order, including
# the initial End-of-RIB burst) must match the reference entry for entry.
# Its lookups read flat stride arrays over a shadow trie, so this freeze
# is what proves the array planes never leak into observable behaviour —
# and on top of it the incremental patches must equal a from-scratch
# rebuild after the whole flap-heavy trace.


def _reference_manager(table) -> SmaltaManager:
    manager = SmaltaManager(
        width=32,
        policy=PeriodicUpdateCountPolicy(SNAPSHOT_SPACING),
        download_log=DownloadLog(keep_entries=True),
        backend="single",
    )
    for prefix, nexthop in table.items():
        manager.state.load(prefix, nexthop)
    manager.end_of_rib()
    return manager


def _packed_manager(table) -> SmaltaManager:
    manager = SmaltaManager(
        width=32,
        policy=PeriodicUpdateCountPolicy(SNAPSHOT_SPACING),
        download_log=DownloadLog(keep_entries=True),
        backend="packed",
    )
    assert manager.backend_name == "packed"
    for prefix, nexthop in table.items():
        manager.state.load(prefix, nexthop)
    manager.end_of_rib()
    return manager


def test_golden_sequential_packed(golden):
    table, trace = golden
    reference = _reference_manager(table)
    packed = _packed_manager(table)
    for update in trace:
        reference.apply(update)
        packed.apply(update)
    check_common(packed)
    summary = packed.summary()
    assert summary["update_downloads"] == EXPECTED_SEQUENTIAL_UPDATE_DOWNLOADS
    assert summary == reference.summary()
    assert packed.log.downloads == reference.log.downloads
    assert packed.state.trie.packed_divergence() is None
    packed.close()


def test_golden_batched_packed(golden):
    table, trace = golden
    reference = _reference_manager(table)
    packed = _packed_manager(table)
    for burst in iter_bursts(trace, max_gap_s=0.02):
        reference.apply_batch(burst)
        packed.apply_batch(burst)
    check_common(packed)
    summary = packed.summary()
    assert summary["update_downloads"] == EXPECTED_BATCH_UPDATE_DOWNLOADS
    assert summary == reference.summary()
    assert packed.log.downloads == reference.log.downloads
    # The array planes answer exactly like the reference node walk on a
    # spot-check probe set (the golden table's own covered addresses).
    reference_trie = reference.state.trie
    packed_trie = packed.state.trie
    for prefix in list(packed.state.ot_table())[:50]:
        for address in (prefix.value, prefix.value | (2 ** (32 - prefix.length) - 1)):
            assert packed_trie.lookup_ot(address) == reference_trie.lookup_ot(
                address
            )
            assert packed_trie.lookup_at(address) == reference_trie.lookup_at(
                address
            )
    packed.close()
