"""Golden-trace parity: the daemon reproduces the frozen numbers.

The checked-in golden table (400 prefixes) + trace (600 updates, 12
bursts) replayed through daemon tenants must land on exactly the
frozen ``summary()`` numbers of ``tests/core/test_golden_trace.py`` —
same download counts, same snapshot bursts, same FIB sizes — once the
daemon-only telemetry keys (``daemon_*``) are filtered out. Four
tenants cover {sequential, batched} × {single, packed} on ONE daemon,
and ``routes-dump`` served over the live control socket must equal the
batch pipeline's FIB rendered through the same codec.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Optional

import pytest

from repro.core.downloads import DownloadLog
from repro.core.policy import PeriodicUpdateCountPolicy
from repro.daemon import protocol
from repro.daemon.ctl import DaemonClient
from repro.daemon.feeds import feed_trace
from repro.daemon.server import AggregationDaemon
from repro.daemon.tenant import Tenant, TenantConfig
from repro.net.nexthop import Nexthop
from repro.net.prefix import Prefix
from repro.net.update import UpdateTrace, iter_bursts
from repro.router.pipeline import RouterPipeline
from repro.workloads.trace_io import load_table, load_trace

from tests.core.test_golden_trace import (
    EXPECTED_BATCH_UPDATE_DOWNLOADS,
    EXPECTED_COMMON,
    EXPECTED_SEQUENTIAL_UPDATE_DOWNLOADS,
    EXPECTED_SNAPSHOT_BURSTS,
    SNAPSHOT_SPACING,
)

DATA = Path(__file__).resolve().parent.parent / "data"

BURST_GAP_S = 0.02


@pytest.fixture(scope="module")
def golden():
    table, registry = load_table(DATA / "golden_table.txt")
    trace, _ = load_trace(DATA / "golden_trace.txt", registry)
    return table, trace


def load_into(tenant_or_pipeline: "Tenant | RouterPipeline", table) -> None:
    """The golden fixture's startup shape: direct OT loads, pre-EOR."""
    if isinstance(tenant_or_pipeline, Tenant):
        manager = tenant_or_pipeline.pipeline.zebra.manager
    else:
        manager = tenant_or_pipeline.zebra.manager
    for prefix, nexthop in table.items():
        manager.state.load(prefix, nexthop)


def pipeline_golden_run(
    table,
    trace: UpdateTrace,
    backend: str,
    batched: bool,
) -> RouterPipeline:
    pipeline = RouterPipeline(
        width=32,
        policy=PeriodicUpdateCountPolicy(SNAPSHOT_SPACING),
        backend=backend,
        download_log=DownloadLog(keep_entries=True),
    )
    load_into(pipeline, table)
    pipeline.end_of_rib()
    if batched:
        for burst in iter_bursts(trace, max_gap_s=BURST_GAP_S):
            pipeline.apply_burst(burst)
    else:
        for update in trace:
            pipeline.apply_update(update)
    return pipeline


def daemon_summary_filtered(summary: dict[str, float]) -> dict[str, float]:
    """What parity compares: the manager summary, daemon keys dropped."""
    return {
        key: value
        for key, value in summary.items()
        if not key.startswith("daemon_")
    }


def check_frozen(summary: dict[str, float], batched: bool) -> None:
    for key, expected in EXPECTED_COMMON.items():
        assert summary[key] == expected, (key, summary[key], expected)
    expected_updates = (
        EXPECTED_BATCH_UPDATE_DOWNLOADS
        if batched
        else EXPECTED_SEQUENTIAL_UPDATE_DOWNLOADS
    )
    assert summary["update_downloads"] == expected_updates


async def golden_daemon(table, trace: UpdateTrace) -> None:
    variants: list[tuple[str, str, bool]] = [
        ("seq-single", "single", False),
        ("bat-single", "single", True),
        ("seq-packed", "packed", False),
        ("bat-packed", "packed", True),
    ]
    daemon = AggregationDaemon()
    for name, backend, _ in variants:
        tenant = daemon.add_tenant(
            TenantConfig(
                name=name,
                width=32,
                policy=PeriodicUpdateCountPolicy(SNAPSHOT_SPACING),
                backend=backend,
                keep_entries=True,
            ),
            start=False,
        )
        load_into(tenant, table)
    await daemon.start()

    async def run_one(name: str, batched: bool) -> None:
        tenant = daemon.tenants[name]
        await tenant.end_of_rib()
        gap: Optional[float] = BURST_GAP_S if batched else None
        await feed_trace(tenant, trace, burst_gap_s=gap)
        await tenant.drain()

    await asyncio.gather(
        *(run_one(name, batched) for name, _, batched in variants)
    )

    client = await DaemonClient.connect("127.0.0.1", daemon.control_port)
    try:
        for name, backend, batched in variants:
            tenant = daemon.tenants[name]

            # 1. Frozen summary numbers, daemon-only keys filtered.
            result = await client.call("summary", tenant=name)
            served = result["summary"]
            assert any(key.startswith("daemon_") for key in served)
            filtered = daemon_summary_filtered(served)
            check_frozen(filtered, batched)
            assert tenant.pipeline.zebra.manager.log.snapshot_bursts == (
                EXPECTED_SNAPSHOT_BURSTS
            )

            # 2. Byte-identical streams and equal summaries against the
            #    batch pipeline ground truth of the same variant.
            reference = pipeline_golden_run(table, trace, backend, batched)
            assert filtered == reference.zebra.manager.summary()
            assert (
                tenant.download_log.downloads
                == reference.download_log.downloads
            )

            # 3. routes-dump over the live socket equals the reference
            #    FIB through the same codec, for every table view.
            for which, expected_table in (
                ("fib", reference.zebra.manager.fib_table()),
                ("ot", reference.zebra.manager.state.ot_table()),
                ("kernel", reference.zebra.kernel.table()),
            ):
                dump = await client.call("routes-dump", tenant=name, table=which)
                assert dump["routes"] == protocol.encode_table(expected_table)
                decoded = protocol.decode_table(dump["routes"])
                assert decoded == dict(expected_table)
            reference.close()

        # 4. The fleet joint walk signs off on all four tenants at once.
        verdict = await client.call("verify")
        assert verdict["ok"] is True
        assert verdict["walks"] == 1
        assert len(verdict["tenants"]) == len(variants)
    finally:
        await client.close()
        await daemon.stop()


def test_golden_parity_through_daemon(golden):
    table, trace = golden
    asyncio.run(golden_daemon(table, trace))


def test_routes_dump_codec_is_lossless(golden):
    """encode_table ∘ decode_table is the identity on the golden FIB."""
    table, trace = golden
    reference = pipeline_golden_run(table, trace, "single", batched=True)
    fib: dict[Prefix, Nexthop] = reference.zebra.manager.fib_table()
    encoded = protocol.encode_table(fib)
    assert protocol.decode_table(encoded) == fib
    # Sorted, so two dumps of equal tables compare equal as JSON.
    assert encoded == sorted(encoded)
    reference.close()
