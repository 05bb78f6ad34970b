"""Control-plane CLI: ``python -m repro.daemon.ctl``.

Modeled on Open/R's ``FibAgentCmd`` / ``OpenrCtrlCmd`` layering: one
class per subcommand, each owning its wire exchange in ``_run(client,
args)`` and its rendering, with a thin argparse front that maps
subcommand names to classes. Every subcommand supports ``--json`` for
machine-readable output; the default rendering is operator tables.

The client side is :class:`DaemonClient` — a tiny async NDJSON
requester over ``asyncio.open_connection`` (never the blocking socket
module; REPRO013 gates this file too).
"""

from __future__ import annotations

import argparse
import asyncio
import json
from typing import Any, Mapping, Optional, Sequence

from repro.daemon import protocol
from repro.daemon.protocol import decode_nexthop, decode_prefix

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 7547


class CtlError(Exception):
    """A failed command: server-side error frame or transport loss."""


class DaemonClient:
    """One control-socket connection; requests are strictly ordered."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0

    @classmethod
    async def connect(cls, host: str, port: int) -> "DaemonClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_LINE_BYTES
        )
        return cls(reader, writer)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass

    async def call(self, cmd: str, **args: Any) -> Any:
        """One request/response exchange; raises :class:`CtlError` on an
        error frame, a transport break, or an id mismatch."""
        self._next_id += 1
        request_id = self._next_id
        self._writer.write(protocol.request_line(request_id, cmd, args))
        await self._writer.drain()
        line = await self._reader.readline()
        if len(line) == 0:
            raise CtlError("connection closed by daemon")
        try:
            frame = protocol.decode_line(line)
        except protocol.ProtocolError as exc:
            raise CtlError(f"bad response frame: {exc}") from exc
        if frame.get("id") != request_id:
            raise CtlError(
                f"response id {frame.get('id')!r} does not match {request_id}"
            )
        if frame.get("ok") is not True:
            raise CtlError(str(frame.get("error", "unspecified daemon error")))
        return frame.get("result")


def _render_rows(rows: Sequence[Sequence[str]], headers: Sequence[str]) -> str:
    """Aligned operator tables (the Open/R CLIs use prettytable; this is
    the zero-dependency equivalent)."""
    table = [list(headers)] + [list(row) for row in rows]
    widths = [max(len(row[col]) for row in table) for col in range(len(headers))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


class DaemonCmd:
    """Base command: connect, run the exchange, render, disconnect."""

    def __init__(self, host: str, port: int, as_json: bool = False) -> None:
        self.host = host
        self.port = port
        self.as_json = as_json

    def run(self, args: argparse.Namespace) -> int:
        return asyncio.run(self._execute(args))

    async def _execute(self, args: argparse.Namespace) -> int:
        try:
            client = await DaemonClient.connect(self.host, self.port)
        except OSError as exc:
            print(f"cannot connect to {self.host}:{self.port}: {exc}")
            return 2
        try:
            return await self._run(client, args)
        except CtlError as exc:
            print(f"error: {exc}")
            return 1
        finally:
            await client.close()

    async def _run(self, client: DaemonClient, args: argparse.Namespace) -> int:
        raise NotImplementedError

    def emit(self, result: Any, rendered: Optional[str] = None) -> None:
        if self.as_json or rendered is None:
            print(json.dumps(result, indent=2, sort_keys=True))
        else:
            print(rendered)


class PingCmd(DaemonCmd):
    async def _run(self, client: DaemonClient, args: argparse.Namespace) -> int:
        result = await client.call("ping")
        self.emit(
            result,
            f"pong (protocol v{result['protocol']}, {result['tenants']} tenant(s))",
        )
        return 0


class StatusCmd(DaemonCmd):
    async def _run(self, client: DaemonClient, args: argparse.Namespace) -> int:
        result = await client.call("status")
        rows = [
            (
                name,
                info["backend"],
                str(info["width"]),
                "yes" if info["running"] else "no",
                str(info["queue_depth"]),
                str(int(info["summary"]["updates_received"])),
                str(int(info["summary"]["fib_size"])),
            )
            for name, info in sorted(result["tenants"].items())
        ]
        rendered = (
            f"uptime: {result['uptime_s']:.3f}s\n"
            + _render_rows(
                rows,
                ("tenant", "backend", "width", "run", "queued", "updates", "fib"),
            )
        )
        self.emit(result, rendered)
        return 0


class TenantAddCmd(DaemonCmd):
    async def _run(self, client: DaemonClient, args: argparse.Namespace) -> int:
        result = await client.call(
            "tenant-add",
            name=args.name,
            width=args.width,
            backend=args.backend,
            smalta_enabled=not args.no_smalta,
            keep_entries=args.keep_entries,
        )
        self.emit(result, f"added tenant {result['added']}")
        return 0


class TenantRemoveCmd(DaemonCmd):
    async def _run(self, client: DaemonClient, args: argparse.Namespace) -> int:
        result = await client.call("tenant-remove", name=args.name)
        self.emit(result, f"removed tenant {result['removed']}")
        return 0


class TenantListCmd(DaemonCmd):
    async def _run(self, client: DaemonClient, args: argparse.Namespace) -> int:
        result = await client.call("tenant-list")
        rows = [
            (
                entry["name"],
                entry["backend"],
                str(entry["width"]),
                "yes" if entry["running"] else "no",
            )
            for entry in result
        ]
        self.emit(result, _render_rows(rows, ("tenant", "backend", "width", "run")))
        return 0


class RoutesDumpCmd(DaemonCmd):
    async def _run(self, client: DaemonClient, args: argparse.Namespace) -> int:
        result = await client.call(
            "routes-dump", tenant=args.tenant, table=args.table
        )
        rows = []
        for raw_prefix, raw_nexthop in result["routes"]:
            prefix = decode_prefix(raw_prefix)
            nexthop = decode_nexthop(raw_nexthop)
            rows.append((str(prefix), str(nexthop)))
        rendered = (
            f"{result['tenant']}/{result['table']}: {len(rows)} route(s)\n"
            + _render_rows(rows, ("prefix", "nexthop"))
        )
        self.emit(result, rendered)
        return 0


class DiffKernelCmd(DaemonCmd):
    async def _run(self, client: DaemonClient, args: argparse.Namespace) -> int:
        result = await client.call("diff-kernel", tenant=args.tenant)
        if result["in_sync"]:
            self.emit(result, f"{result['tenant']}: kernel in sync with FIB")
            return 0
        rows = []
        for raw in result["ops"]:
            download = protocol.decode_download(raw)
            rows.append(
                (
                    download.kind.value,
                    str(download.prefix),
                    str(download.nexthop) if download.nexthop is not None else "-",
                )
            )
        self.emit(
            result,
            f"{result['tenant']}: {len(rows)} op(s) out of sync\n"
            + _render_rows(rows, ("op", "prefix", "nexthop")),
        )
        return 1


class ChannelStatusCmd(DaemonCmd):
    async def _run(self, client: DaemonClient, args: argparse.Namespace) -> int:
        result = await client.call("channel-status", tenant=args.tenant)
        rows = [(key, str(result[key])) for key in sorted(result)]
        self.emit(result, _render_rows(rows, ("field", "value")))
        return 0


class SnapshotCmd(DaemonCmd):
    async def _run(self, client: DaemonClient, args: argparse.Namespace) -> int:
        result = await client.call("snapshot", tenant=args.tenant)
        self.emit(
            result,
            f"{result['tenant']}: snapshot downloaded {result['burst']} op(s)",
        )
        return 0


class ResyncCmd(DaemonCmd):
    async def _run(self, client: DaemonClient, args: argparse.Namespace) -> int:
        result = await client.call("resync", tenant=args.tenant)
        self.emit(result, f"{result['tenant']}: full sync forced")
        return 0


class VerifyCmd(DaemonCmd):
    async def _run(self, client: DaemonClient, args: argparse.Namespace) -> int:
        tenants = args.tenant if len(args.tenant) > 0 else None
        result = await client.call("verify", tenants=tenants)
        rows = [
            (
                name,
                "ok" if entry["ok"] else "DIVERGED",
                str(entry["divergences"]),
            )
            for name, entry in sorted(result["tenants"].items())
        ]
        verdict = "all tenants consistent" if result["ok"] else "DIVERGENCE FOUND"
        self.emit(
            result,
            f"{verdict} ({result['walks']} joint walk(s))\n"
            + _render_rows(rows, ("tenant", "verdict", "divergences")),
        )
        return 0 if result["ok"] else 1


class ShutdownCmd(DaemonCmd):
    async def _run(self, client: DaemonClient, args: argparse.Namespace) -> int:
        result = await client.call("shutdown")
        self.emit(result, "daemon stopping")
        return 0


#: Subcommand name → (command class, help line).
COMMANDS: Mapping[str, tuple[type[DaemonCmd], str]] = {
    "ping": (PingCmd, "liveness probe"),
    "status": (StatusCmd, "daemon uptime and per-tenant summaries"),
    "tenant-add": (TenantAddCmd, "host a new tenant router"),
    "tenant-remove": (TenantRemoveCmd, "stop and remove a tenant"),
    "tenant-list": (TenantListCmd, "list hosted tenants"),
    "routes-dump": (RoutesDumpCmd, "dump a tenant table (fib/ot/at/kernel)"),
    "diff-kernel": (DiffKernelCmd, "diff a tenant's kernel against its FIB"),
    "channel-status": (ChannelStatusCmd, "download-channel counters"),
    "snapshot": (SnapshotCmd, "force snapshot(OT) on a tenant"),
    "resync": (ResyncCmd, "force a full-sync reconciliation"),
    "verify": (VerifyCmd, "joint VeriTable walk over all tenants"),
    "shutdown": (ShutdownCmd, "ask the daemon to stop"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.daemon.ctl",
        description="control-plane CLI for the aggregation daemon",
    )
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_line)
        if name in (
            "routes-dump",
            "diff-kernel",
            "channel-status",
            "snapshot",
            "resync",
        ):
            cmd.add_argument("tenant")
        if name == "routes-dump":
            cmd.add_argument(
                "--table", choices=("fib", "ot", "at", "kernel"), default="fib"
            )
        if name == "verify":
            cmd.add_argument(
                "tenant", nargs="*", help="tenants to verify (default: all)"
            )
        if name in ("tenant-add", "tenant-remove"):
            cmd.add_argument("name")
        if name == "tenant-add":
            cmd.add_argument("--width", type=int, default=32)
            cmd.add_argument("--backend", default=None)
            cmd.add_argument("--no-smalta", action="store_true")
            cmd.add_argument("--keep-entries", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command_cls, _ = COMMANDS[args.command]
    command = command_cls(args.host, args.port, as_json=args.json)
    return command.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
