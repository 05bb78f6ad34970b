"""Daemon ≡ batch pipeline, byte for byte, scenario for scenario.

Every scenario shape of the core batch differential harness
(``tests/core/test_batch_differential.py`` — same op strategy, same
seeded 200-sequence generator, same burst partitions) replays through a
hosted daemon tenant and must produce a download log **entry-for-entry
identical** to a batch :class:`~repro.router.pipeline.RouterPipeline`
run of the same feed. Both trie backends are crossed in every scenario:
the reference single trie and the packed backend (3+3 stride plan), so
one test run covers the full backend × path matrix regardless of
``SMALTA_BACKEND``.
"""

from __future__ import annotations

import asyncio
import random
from typing import Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.downloads import DownloadLog, FibDownload
from repro.core.policy import PeriodicUpdateCountPolicy, SnapshotPolicy
from repro.core.packed import PackedBackend
from repro.core.trie import FibTrie
from repro.daemon.server import AggregationDaemon
from repro.daemon.tenant import TenantConfig
from repro.net.nexthop import Nexthop
from repro.net.prefix import Prefix
from repro.net.update import RouteUpdate
from repro.router.pipeline import RouterPipeline

from tests.core.test_batch_differential import (
    NEXTHOPS,
    WIDTH,
    bursts_of,
    decode,
    op_strategy,
    to_prefix,
)

SNAPSHOT_SPACING = 7

Op = tuple[Prefix, "Nexthop | None"]


def make_backend_instance(backend: str) -> "str | FibTrie":
    """Width-6 backends: the packed flavor needs the explicit width-6
    instance the core harness uses (the 16+8+8 stride default assumes
    IPv4 widths)."""
    if backend == "packed":
        return PackedBackend(WIDTH, strides=(3, 3))
    return "single"


def fresh_policy() -> SnapshotPolicy:
    return PeriodicUpdateCountPolicy(SNAPSHOT_SPACING)


def to_update(op: Op) -> RouteUpdate:
    prefix, nexthop = op
    if nexthop is None:
        return RouteUpdate.withdraw(prefix)
    return RouteUpdate.announce(prefix, nexthop)


def pipeline_replay(
    ops: list[Op],
    boundaries: Optional[list[int]],
    backend: str,
) -> list[FibDownload]:
    """The batch-pipeline ground truth: ``boundaries=None`` replays
    sequentially (one ``apply_update`` per op), otherwise one
    ``apply_burst`` per burst."""
    log = DownloadLog(keep_entries=True)
    pipeline = RouterPipeline(
        width=WIDTH,
        policy=fresh_policy(),
        backend=make_backend_instance(backend),
        download_log=log,
    )
    pipeline.end_of_rib()
    if boundaries is None:
        for op in ops:
            pipeline.apply_update(to_update(op))
    else:
        for burst in bursts_of(ops, boundaries):
            pipeline.apply_burst([to_update(op) for op in burst])
    pipeline.close()
    return log.downloads


async def daemon_replay(
    scenarios: list[tuple[list[Op], Optional[list[int]], str]],
) -> list[list[FibDownload]]:
    """Replay each (ops, boundaries, backend) scenario through its own
    tenant of ONE daemon, all concurrently interleaved on the loop."""
    daemon = AggregationDaemon()
    tenants = []
    for index, (_, _, backend) in enumerate(scenarios):
        tenants.append(
            daemon.add_tenant(
                TenantConfig(
                    name=f"t{index}",
                    width=WIDTH,
                    policy=fresh_policy(),
                    backend=make_backend_instance(backend),
                    keep_entries=True,
                ),
                start=False,
            )
        )
    await daemon.start()

    async def feed_one(index: int) -> None:
        ops, boundaries, _ = scenarios[index]
        tenant = tenants[index]
        await tenant.end_of_rib()
        if boundaries is None:
            for op in ops:
                await tenant.feed_update(to_update(op))
        else:
            for burst in bursts_of(ops, boundaries):
                await tenant.feed_burst([to_update(op) for op in burst])
        await tenant.drain()

    # Concurrent feeds: tenants interleave on the loop, which is the
    # daemon's real operating mode — isolation is part of the proof.
    await asyncio.gather(*(feed_one(i) for i in range(len(scenarios))))
    logs = [tenant.download_log.downloads for tenant in tenants]
    await daemon.stop()
    return logs


def check_daemon_differential(ops: list[Op], boundaries: list[int]) -> None:
    """The full matrix for one scenario: {sequential, batched} ×
    {single, packed}, daemon log == pipeline log, byte for byte."""
    scenarios: list[tuple[list[Op], Optional[list[int]], str]] = [
        (ops, None, "single"),
        (ops, boundaries, "single"),
        (ops, None, "packed"),
        (ops, boundaries, "packed"),
    ]
    daemon_logs = asyncio.run(daemon_replay(scenarios))
    for (s_ops, s_boundaries, backend), daemon_log in zip(scenarios, daemon_logs):
        expected = pipeline_replay(s_ops, s_boundaries, backend)
        assert daemon_log == expected, (
            f"daemon/pipeline download logs diverge "
            f"(backend={backend}, batched={s_boundaries is not None})"
        )
    # The backends must also agree with each other (transitivity makes
    # this redundant — asserting it localizes a failure faster).
    assert daemon_logs[0] == daemon_logs[2]
    assert daemon_logs[1] == daemon_logs[3]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.lists(op_strategy(), min_size=1, max_size=40))
def test_daemon_differential_property(raw):
    ops, boundaries = decode(raw)
    check_daemon_differential(ops, boundaries)


def test_daemon_differential_200_seeded_sequences():
    """The core harness's acceptance floor, replayed through the daemon:
    same seed, same generator shape, every scenario byte-identical."""
    rng = random.Random(20110712)
    for _ in range(200):
        ops: list[Op] = []
        boundaries = [0]
        for index in range(rng.randint(1, 40)):
            length = rng.randint(1, WIDTH)
            prefix = to_prefix(length, rng.getrandbits(length))
            if rng.random() < 0.6:
                ops.append((prefix, NEXTHOPS[rng.randrange(len(NEXTHOPS))]))
            else:
                ops.append((prefix, None))
            if rng.random() < 0.3 and index + 1 < 40:
                boundaries.append(len(ops))
        clean = sorted(set(b for b in boundaries if b < len(ops)))
        check_daemon_differential(ops, clean)


def test_many_tenants_one_daemon_stay_isolated():
    """≥3 tenants with *different* feeds on one daemon: each tenant's
    log equals its own pipeline ground truth — no cross-tenant bleed."""
    rng = random.Random(42)
    feeds: list[list[Op]] = []
    for _ in range(6):
        ops: list[Op] = []
        for _ in range(rng.randint(10, 30)):
            length = rng.randint(1, WIDTH)
            prefix = to_prefix(length, rng.getrandbits(length))
            if rng.random() < 0.7:
                ops.append((prefix, NEXTHOPS[rng.randrange(len(NEXTHOPS))]))
            else:
                ops.append((prefix, None))
        feeds.append(ops)
    flavors = ("single", "packed")
    scenarios: list[tuple[list[Op], Optional[list[int]], str]] = [
        (ops, None, flavors[index % len(flavors)])
        for index, ops in enumerate(feeds)
    ]
    daemon_logs = asyncio.run(daemon_replay(scenarios))
    for (ops, _, backend), log in zip(scenarios, daemon_logs):
        assert log == pipeline_replay(ops, None, backend)
