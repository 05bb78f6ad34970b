"""Daemon soak runner: the CI gate for the asyncio aggregation daemon.

Stands up ONE :class:`~repro.daemon.server.AggregationDaemon` hosting a
seeded multi-tenant fleet (both trie backends, alternating), replays a
synthetic workload through every tenant **concurrently** while a prober
hammers the control socket and the Prometheus endpoint mid-run, and
then verifies the daemon's whole contract:

1. **byte-identity** — every tenant's download log equals a batch
   :class:`~repro.router.pipeline.RouterPipeline` replay of the same
   feed, entry for entry, on its backend;
2. **joint-walk consistency** — the ``verify`` command's VeriTable walk
   reports every tenant OT ≡ FIB ≡ kernel, one walk for the fleet, and
   agrees with the pairwise oracle;
3. **scrape round-trip** — every scrape body satisfies the pinned
   ``parse_prometheus(body) == flatten_samples(registry)`` law;
4. **liveness** — control commands answered mid-replay (the prober's
   count is part of the report).

Exit status 1 means the contract broke — CI's ``daemon-soak`` job runs
this on every push. Workload generation and all file IO stay in the
synchronous entry point (REPRO013 gates this module too).

Usage::

    python -m repro.tools.daemon_soak --tenants 4 --prefixes 200 \\
        --updates 800 --seed 7 --batch-size 16
    python -m repro.tools.daemon_soak --tenants 3 --format json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.core.downloads import DownloadLog, FibDownload
from repro.core.equivalence import jointly_equivalent, semantically_equivalent
from repro.core.policy import PeriodicUpdateCountPolicy
from repro.daemon.ctl import DaemonClient
from repro.daemon.feeds import feed_trace
from repro.daemon.server import AggregationDaemon
from repro.daemon.tenant import TenantConfig
from repro.net.nexthop import Nexthop
from repro.net.prefix import Prefix
from repro.net.update import UpdateTrace
from repro.obs.export import flatten_samples, parse_prometheus
from repro.router.pipeline import RouterPipeline
from repro.workloads.synthetic_table import generate_table
from repro.workloads.synthetic_updates import generate_update_trace

FORMATS = ("text", "json")

#: Read-only control commands the prober may issue mid-replay.
PROBE_COMMANDS = ("ping", "status", "tenant-list")


@dataclass
class TenantWorkload:
    """One tenant's seeded feed, generated before the loop starts."""

    name: str
    backend: str
    table: dict[Prefix, Nexthop]
    trace: UpdateTrace


@dataclass
class SoakReport:
    """Everything the contract check produced."""

    tenants: dict[str, dict[str, Any]] = field(default_factory=dict)
    probes_answered: int = 0
    scrapes_verified: int = 0
    joint_walks: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def build_workloads(
    tenants: int,
    prefixes: int,
    updates: int,
    width: int,
    nexthop_count: int,
    seed: int,
) -> list[TenantWorkload]:
    """Seeded per-tenant workloads; backends alternate single/packed."""
    nexthops = [Nexthop(i + 1, f"nh{i + 1}") for i in range(nexthop_count)]
    workloads: list[TenantWorkload] = []
    for index in range(tenants):
        rng = random.Random(seed * 1_000_003 + index)
        table = generate_table(prefixes, nexthops, rng)
        trace = generate_update_trace(table, updates, nexthops, rng)
        workloads.append(
            TenantWorkload(
                name=f"t{index}",
                backend="packed" if index % 2 else "single",
                table=table,
                trace=trace,
            )
        )
    return workloads


def reference_replay(
    workload: TenantWorkload,
    width: int,
    spacing: int,
    batch_size: Optional[int],
    gap_s: Optional[float],
) -> tuple[list[FibDownload], dict[Prefix, Nexthop], dict[str, float]]:
    """The batch ground truth for one workload: log, FIB, summary."""
    log = DownloadLog(keep_entries=True)
    pipeline = RouterPipeline(
        width=width,
        policy=PeriodicUpdateCountPolicy(spacing),
        backend=workload.backend,
        download_log=log,
    )
    manager = pipeline.zebra.manager
    for prefix, nexthop in workload.table.items():
        manager.state.load(prefix, nexthop)
    pipeline.end_of_rib()
    pipeline.run_trace(workload.trace, batch_size=batch_size, burst_gap_s=gap_s)
    fib = manager.fib_table()
    summary = manager.summary()
    pipeline.close()
    return log.downloads, fib, summary


async def prober(
    client: DaemonClient,
    rng: random.Random,
    done: asyncio.Event,
    report: SoakReport,
) -> None:
    """Hammer read-only control commands until the feeders finish."""
    while not done.is_set():
        command = PROBE_COMMANDS[rng.randrange(len(PROBE_COMMANDS))]
        result = await client.call(command)
        if command == "ping" and result.get("pong") is not True:
            report.violations.append("ping did not pong mid-run")
        report.probes_answered += 1
        await asyncio.sleep(0)


async def scrape(port: int, path: str) -> tuple[str, str]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode("latin-1"))
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, body = raw.decode("utf-8").partition("\r\n\r\n")
    return head, body


async def run_soak(
    workloads: list[TenantWorkload],
    width: int,
    spacing: int,
    batch_size: Optional[int],
    gap_s: Optional[float],
    seed: int,
) -> SoakReport:
    """The async soak: concurrent replay + probing, then the contract."""
    report = SoakReport()
    daemon = AggregationDaemon()
    for workload in workloads:
        tenant = daemon.add_tenant(
            TenantConfig(
                name=workload.name,
                width=width,
                policy=PeriodicUpdateCountPolicy(spacing),
                backend=workload.backend,
                keep_entries=True,
            ),
            start=False,
        )
        manager = tenant.pipeline.zebra.manager
        for prefix, nexthop in workload.table.items():
            manager.state.load(prefix, nexthop)
    await daemon.start()
    client = await DaemonClient.connect("127.0.0.1", daemon.control_port)
    try:
        done = asyncio.Event()
        probe_task = asyncio.get_running_loop().create_task(
            prober(client, random.Random(seed), done, report)
        )

        async def feed_one(workload: TenantWorkload) -> None:
            tenant = daemon.tenants[workload.name]
            await tenant.end_of_rib()
            await feed_trace(
                tenant, workload.trace, batch_size=batch_size, burst_gap_s=gap_s
            )
            await tenant.drain()

        await asyncio.gather(*(feed_one(w) for w in workloads))
        done.set()
        await probe_task
        if report.probes_answered == 0:
            report.violations.append("prober never got a control response")

        # contract 1: byte-identity against the batch pipeline
        for workload in workloads:
            tenant = daemon.tenants[workload.name]
            expected_log, expected_fib, expected_summary = reference_replay(
                workload, width, spacing, batch_size, gap_s
            )
            manager = tenant.pipeline.zebra.manager
            identical = tenant.download_log.downloads == expected_log
            if not identical:
                report.violations.append(
                    f"{workload.name}: download log diverged from the "
                    f"batch pipeline ({workload.backend} backend)"
                )
            if manager.fib_table() != expected_fib:
                report.violations.append(
                    f"{workload.name}: FIB diverged from the batch pipeline"
                )
            live_summary = {
                key: value
                for key, value in tenant.summary().items()
                if not key.startswith("daemon_")
            }
            if live_summary != expected_summary:
                report.violations.append(
                    f"{workload.name}: summary diverged from the batch pipeline"
                )
            report.tenants[workload.name] = {
                "backend": workload.backend,
                "updates": int(live_summary.get("updates_received", 0.0)),
                "downloads": len(expected_log),
                "fib_size": len(expected_fib),
                "byte_identical": identical,
            }

        # contract 2: ONE joint walk signs the fleet off, and it agrees
        # with the pairwise oracle tenant by tenant
        verdict = await client.call("verify")
        report.joint_walks = int(verdict["walks"])
        if verdict["ok"] is not True:
            report.violations.append("joint walk found divergence")
        if verdict["walks"] != 1:
            report.violations.append(
                f"expected 1 joint walk for one width, got {verdict['walks']}"
            )
        for workload in workloads:
            tenant = daemon.tenants[workload.name]
            manager = tenant.pipeline.zebra.manager
            tables = [
                manager.state.ot_table(),
                manager.fib_table(),
                tenant.pipeline.zebra.kernel.table(),
            ]
            joint = jointly_equivalent(tables, width)
            pairwise = all(
                semantically_equivalent(tables[i], tables[j], width)
                for i in range(3)
                for j in range(i + 1, 3)
            )
            if joint != pairwise:
                report.violations.append(
                    f"{workload.name}: joint walk disagrees with pairwise"
                )
            if verdict["tenants"][workload.name]["ok"] != joint:
                report.violations.append(
                    f"{workload.name}: verify command disagrees with the walk"
                )

        # contract 3: scrape round-trip on every registry
        for workload in workloads:
            head, body = await scrape(
                daemon.metrics_port, f"/metrics/{workload.name}"
            )
            if not head.startswith("HTTP/1.0 200"):
                report.violations.append(f"{workload.name}: scrape failed")
                continue
            registry = daemon.tenants[workload.name].obs.registry
            if parse_prometheus(body) != flatten_samples(registry):
                report.violations.append(
                    f"{workload.name}: scrape round-trip broke the 0.0.4 law"
                )
            report.scrapes_verified += 1
        # the daemon registry's scrape counter increments AFTER the body
        # renders, so it lags the live registry by exactly this scrape —
        # compare everything else verbatim
        head, body = await scrape(daemon.metrics_port, "/metrics")
        scraped = {
            key: value
            for key, value in parse_prometheus(body).items()
            if not key.startswith("daemon_scrapes_total")
        }
        live = {
            key: value
            for key, value in flatten_samples(daemon.obs.registry).items()
            if not key.startswith("daemon_scrapes_total")
        }
        if scraped != live:
            report.violations.append("daemon scrape round-trip broke")
        else:
            report.scrapes_verified += 1

        # post-check churn: forced snapshot + resync must keep the fleet
        # consistent (the logs already diffed; this is pure consistency)
        for workload in workloads:
            await client.call("snapshot", tenant=workload.name)
            await client.call("resync", tenant=workload.name)
        final = await client.call("verify")
        if final["ok"] is not True:
            report.violations.append("fleet diverged after snapshot+resync")
    finally:
        await client.close()
        await daemon.stop()
    return report


def render_text(report: SoakReport) -> str:
    lines = ["daemon soak report", "=================="]
    for name, info in sorted(report.tenants.items()):
        lines.append(
            f"{name}: backend={info['backend']} updates={info['updates']} "
            f"downloads={info['downloads']} fib={info['fib_size']} "
            f"byte_identical={'yes' if info['byte_identical'] else 'NO'}"
        )
    lines.append(
        f"probes answered mid-run: {report.probes_answered}; "
        f"scrapes verified: {report.scrapes_verified}; "
        f"joint walks: {report.joint_walks}"
    )
    if report.ok:
        lines.append("contract: OK")
    else:
        lines.append(f"contract: {len(report.violations)} VIOLATION(S)")
        lines.extend(f"  - {violation}" for violation in report.violations)
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.daemon_soak",
        description="multi-tenant soak + contract check for repro.daemon",
    )
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--prefixes", type=int, default=200)
    parser.add_argument("--updates", type=int, default=800)
    parser.add_argument("--width", type=int, default=32)
    parser.add_argument("--nexthops", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--spacing", type=int, default=50)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--gap", type=float, default=None)
    parser.add_argument("--format", choices=FORMATS, default="text")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.tenants < 3:
        print("--tenants must be at least 3 (the acceptance floor)")
        return 2
    workloads = build_workloads(
        args.tenants, args.prefixes, args.updates, args.width,
        args.nexthops, args.seed,
    )
    report = asyncio.run(
        run_soak(
            workloads, args.width, args.spacing,
            args.batch_size, args.gap, args.seed,
        )
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "ok": report.ok,
                    "tenants": report.tenants,
                    "probes_answered": report.probes_answered,
                    "scrapes_verified": report.scrapes_verified,
                    "joint_walks": report.joint_walks,
                    "violations": report.violations,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(render_text(report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
