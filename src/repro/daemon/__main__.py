"""Run the aggregation daemon: ``python -m repro.daemon``.

Starts the server, optionally pre-hosting tenants and replaying trace
files into them, then serves until a ``shutdown`` control command (or
Ctrl-C). Trace files are loaded *synchronously* before the event loop
starts — file IO is banned from async paths — and streamed through the
tenants' backpressured queues once the loop is up.

Examples::

    python -m repro.daemon --control-port 7547 --metrics-port 9100 \
        --tenant r1 --tenant r2,backend=packed
    python -m repro.daemon --tenant r1 \
        --replay r1=tests/data/golden_trace.txt --batch-size 8
"""

from __future__ import annotations

import argparse
import asyncio
from typing import Optional, Sequence

from repro.daemon.feeds import load_and_feed
from repro.daemon.server import AggregationDaemon
from repro.daemon.tenant import TenantConfig
from repro.net.update import RouteUpdate
from repro.workloads.trace_io import load_trace


def parse_tenant_spec(spec: str) -> TenantConfig:
    """``name[,width=N][,backend=B][,smalta=off][,keep-entries=on]``."""
    parts = spec.split(",")
    name = parts[0]
    width = 32
    backend: Optional[str] = None
    enabled = True
    keep = False
    for part in parts[1:]:
        key, _, value = part.partition("=")
        if key == "width":
            width = int(value)
        elif key == "backend":
            backend = value
        elif key == "smalta":
            enabled = value not in ("off", "false", "0")
        elif key == "keep-entries":
            keep = value in ("on", "true", "1", "")
        else:
            raise ValueError(f"unknown tenant option {key!r} in {spec!r}")
    return TenantConfig(
        name=name,
        width=width,
        backend=backend,
        smalta_enabled=enabled,
        keep_entries=keep,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.daemon",
        description="long-running SMALTA aggregation daemon",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--control-port", type=int, default=7547)
    parser.add_argument("--metrics-port", type=int, default=9100)
    parser.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="SPEC",
        help="host a tenant: name[,width=N][,backend=B][,smalta=off]",
    )
    parser.add_argument(
        "--replay",
        action="append",
        default=[],
        metavar="TENANT=TRACE",
        help="replay a trace file into a tenant after startup",
    )
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--burst-gap", type=float, default=None)
    parser.add_argument(
        "--end-of-rib",
        action="store_true",
        help="send End-of-RIB after each replayed trace",
    )
    return parser


async def _serve(
    daemon: AggregationDaemon,
    host: str,
    control_port: int,
    metrics_port: int,
    replays: list[tuple[str, list[RouteUpdate]]],
    batch_size: Optional[int],
    burst_gap_s: Optional[float],
    end_of_rib: bool,
) -> None:
    await daemon.start(host, control_port, metrics_port)
    print(
        f"daemon up: control {host}:{daemon.control_port}, "
        f"metrics {host}:{daemon.metrics_port}, "
        f"{len(daemon.tenants)} tenant(s)"
    )
    feeders = [
        asyncio.ensure_future(
            load_and_feed(
                daemon.tenants[name],
                updates,
                batch_size=batch_size,
                burst_gap_s=burst_gap_s,
                end_of_rib=end_of_rib,
            )
        )
        for name, updates in replays
    ]
    try:
        await daemon.serve_until_shutdown()
    finally:
        for feeder in feeders:
            if not feeder.done():
                feeder.cancel()
        # Join the feeders so a replay failure surfaces instead of being
        # swallowed with the cancelled handle (CancelledError itself is
        # BaseException and stays silent — cancelling them is the plan).
        results = await asyncio.gather(*feeders, return_exceptions=True)
        for (name, _updates), result in zip(replays, results):
            if isinstance(result, Exception):
                print(f"replay into {name!r} failed: {result}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    daemon = AggregationDaemon()
    for spec in args.tenant:
        daemon.add_tenant(parse_tenant_spec(spec), start=False)
    replays: list[tuple[str, list[RouteUpdate]]] = []
    for item in args.replay:
        name, _, path = item.partition("=")
        if len(path) == 0:
            raise SystemExit(f"--replay needs TENANT=TRACE, got {item!r}")
        if name not in daemon.tenants:
            raise SystemExit(f"--replay names unknown tenant {name!r}")
        trace, _ = load_trace(path)
        replays.append((name, list(trace)))
    try:
        asyncio.run(
            _serve(
                daemon,
                args.host,
                args.control_port,
                args.metrics_port,
                replays,
                args.batch_size,
                args.burst_gap,
                args.end_of_rib,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
