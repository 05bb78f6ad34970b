"""The asyncio aggregation daemon: many tenants, one control plane.

:class:`AggregationDaemon` hosts any number of :class:`~repro.daemon.
tenant.Tenant` router stacks and exposes two listening sockets:

- a **control socket** speaking the line-delimited JSON protocol of
  :mod:`repro.daemon.protocol` — one request per line, responses in
  order, errors as ``{"ok": false, "error": ...}`` frames that never
  drop the connection;
- a **Prometheus scrape endpoint** — minimal HTTP serving the 0.0.4
  text exposition of the daemon registry at ``/metrics`` and of each
  tenant's registry at ``/metrics/<tenant>`` via the pinned
  :func:`~repro.obs.export.render_prometheus` renderer.

Fleet verification (``verify``) runs the VeriTable-style joint walk
(:func:`~repro.core.equivalence.joint_divergences`): tenants of equal
width share ONE union-trie traversal that checks every tenant's
OT ≡ FIB ≡ kernel agreement, instead of N pairwise diffs.

All of this runs on the event loop: nothing here may block (REPRO013
gates the package), file IO stays in the synchronous entry points, and
time is read only through the injected clock.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Awaitable, Callable, Optional

from repro.core.downloads import diff_tables
from repro.core.equivalence import joint_divergences
from repro.daemon import protocol
from repro.daemon.tenant import Clock, Tenant, TenantConfig
from repro.net.nexthop import Nexthop
from repro.net.prefix import Prefix
from repro.net.update import RouteUpdate
from repro.obs.export import render_prometheus
from repro.obs.observability import Observability

#: Tables ``routes-dump`` can serve, mapped to their accessors.
DUMP_TABLES = ("fib", "ot", "at", "kernel")


class DaemonError(Exception):
    """A command-level failure, reported in-band as an error frame."""


Handler = Callable[[dict[str, Any]], Awaitable[Any]]


class AggregationDaemon:
    """The resident server: tenants, control socket, scrape endpoint."""

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        self._clock = clock
        self.obs = Observability(clock=clock)
        self.tenants: dict[str, Tenant] = {}
        self._control: Optional[asyncio.AbstractServer] = None
        self._metrics: Optional[asyncio.AbstractServer] = None
        #: Claimed synchronously by ``start()`` before its first await so
        #: two concurrent ``start()`` calls cannot both pass the check.
        self._active = False
        #: Open control connections, closed explicitly by ``stop()`` so
        #: loop teardown never cancels a handler mid-read.
        self._connections: set[asyncio.StreamWriter] = set()
        self._started_at: Optional[float] = None
        #: Set by the ``shutdown`` command; ``serve_until_shutdown``
        #: (and ``__main__``) waits on it.
        self.shutdown_requested = asyncio.Event()
        registry = self.obs.registry
        self._g_tenants = registry.gauge(
            "daemon_tenants", "tenants currently hosted"
        )
        self._c_commands = registry.counter(
            "daemon_commands_total", "control commands executed"
        )
        self._c_connections = registry.counter(
            "daemon_control_connections_total", "control connections accepted"
        )
        self._c_proto_errors = registry.counter(
            "daemon_protocol_errors_total", "malformed or failing control frames"
        )
        self._c_scrapes = registry.counter(
            "daemon_scrapes_total", "Prometheus scrapes served"
        )
        self._handlers: dict[str, Handler] = {
            "ping": self._cmd_ping,
            "status": self._cmd_status,
            "tenant-add": self._cmd_tenant_add,
            "tenant-remove": self._cmd_tenant_remove,
            "tenant-list": self._cmd_tenant_list,
            "feed": self._cmd_feed,
            "drain": self._cmd_drain,
            "end-of-rib": self._cmd_end_of_rib,
            "routes-dump": self._cmd_routes_dump,
            "diff-kernel": self._cmd_diff_kernel,
            "channel-status": self._cmd_channel_status,
            "snapshot": self._cmd_snapshot,
            "resync": self._cmd_resync,
            "summary": self._cmd_summary,
            "verify": self._cmd_verify,
            "shutdown": self._cmd_shutdown,
        }

    # -- tenant management ----------------------------------------------

    def add_tenant(self, config: TenantConfig, start: bool = True) -> Tenant:
        """Create (and, inside the loop, start) one hosted router."""
        if config.name in self.tenants:
            raise DaemonError(f"tenant {config.name!r} already exists")
        tenant = Tenant(config, clock=self._clock)
        self.tenants[config.name] = tenant
        if start:
            tenant.start()
        self._g_tenants.set(float(len(self.tenants)))
        return tenant

    async def remove_tenant(self, name: str) -> None:
        tenant = self._tenant(name)
        await tenant.stop()
        tenant.close()
        del self.tenants[name]
        self._g_tenants.set(float(len(self.tenants)))

    def _tenant(self, name: object) -> Tenant:
        if not isinstance(name, str):
            raise DaemonError(f"tenant name must be a string: {name!r}")
        tenant = self.tenants.get(name)
        if tenant is None:
            raise DaemonError(f"no such tenant: {name!r}")
        return tenant

    # -- server lifecycle ------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", control_port: int = 0, metrics_port: int = 0
    ) -> None:
        """Bind both sockets and start every not-yet-started tenant."""
        if self._active:
            raise RuntimeError("daemon already started")
        self._active = True
        control: Optional[asyncio.AbstractServer] = None
        try:
            for tenant in self.tenants.values():
                if not tenant.running:
                    tenant.start()
            control = await asyncio.start_server(
                self._handle_control,
                host,
                control_port,
                limit=protocol.MAX_LINE_BYTES,
            )
            metrics = await asyncio.start_server(
                self._handle_scrape, host, metrics_port
            )
        except BaseException:
            if control is not None:
                control.close()
                await control.wait_closed()
            self._active = False
            raise
        self._control = control
        self._metrics = metrics
        self._started_at = self._clock()

    def _bound_port(self, server: Optional[asyncio.AbstractServer]) -> int:
        if server is None or len(server.sockets) == 0:
            raise RuntimeError("daemon not started")
        port = server.sockets[0].getsockname()[1]
        assert isinstance(port, int)
        return port

    @property
    def control_port(self) -> int:
        return self._bound_port(self._control)

    @property
    def metrics_port(self) -> int:
        return self._bound_port(self._metrics)

    async def stop(self) -> None:
        """Stop tenants (draining their queues), then close both sockets."""
        for name in list(self.tenants):
            tenant = self.tenants[name]
            if tenant.running:
                await tenant.stop()
            tenant.close()
            del self.tenants[name]
        self._g_tenants.set(0.0)
        for writer in list(self._connections):
            writer.close()
        for server in (self._control, self._metrics):
            if server is not None:
                server.close()
                await server.wait_closed()
        # Let the connection handlers observe EOF and finish this turn.
        await asyncio.sleep(0)
        self._control = None
        self._metrics = None
        self._active = False

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` command arrives, then stop."""
        await self.shutdown_requested.wait()
        await self.stop()

    # -- the control socket ----------------------------------------------

    async def _handle_control(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._c_connections.inc()
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionError:
                    break
                except ValueError:
                    # The line outgrew the stream limit: refuse it in-band,
                    # then drop the connection, whose framing is lost.
                    self._c_proto_errors.inc()
                    writer.write(
                        protocol.error_response(
                            None, f"frame exceeds {protocol.MAX_LINE_BYTES} bytes"
                        )
                    )
                    try:
                        await writer.drain()
                    except ConnectionError:
                        pass
                    break
                if len(line) == 0:
                    break
                if line.strip() == b"":
                    continue
                writer.write(await self._respond(line))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _respond(self, line: bytes) -> bytes:
        """One request frame in, one response frame out; never raises."""
        request_id: Optional[int] = None
        try:
            frame = protocol.decode_line(line)
            raw_id = frame.get("id")
            if isinstance(raw_id, int):
                request_id = raw_id
            cmd = frame.get("cmd")
            if not isinstance(cmd, str):
                raise protocol.ProtocolError("frame lacks a string 'cmd'")
            handler = self._handlers.get(cmd)
            if handler is None:
                raise DaemonError(f"unknown command: {cmd!r}")
            args = frame.get("args", {})
            if not isinstance(args, dict):
                raise protocol.ProtocolError("'args' must be an object")
            result = await handler(args)
            self._c_commands.inc()
            return protocol.ok_response(request_id, result)
        except (DaemonError, protocol.ProtocolError) as exc:
            self._c_proto_errors.inc()
            return protocol.error_response(request_id, str(exc))
        except Exception as exc:
            # A handler bug must not sever the operator's connection:
            # surface it in-band and keep serving.
            self._c_proto_errors.inc()
            return protocol.error_response(
                request_id, f"internal error: {type(exc).__name__}: {exc}"
            )

    # -- command handlers ------------------------------------------------

    async def _cmd_ping(self, args: dict[str, Any]) -> dict[str, Any]:
        return {
            "pong": True,
            "protocol": protocol.PROTOCOL_VERSION,
            "tenants": len(self.tenants),
        }

    async def _cmd_status(self, args: dict[str, Any]) -> dict[str, Any]:
        uptime = 0.0
        if self._started_at is not None:
            uptime = self._clock() - self._started_at
        return {
            "uptime_s": uptime,
            "tenants": {
                name: {
                    "running": tenant.running,
                    "width": tenant.config.width,
                    "backend": tenant.pipeline.zebra.manager.backend_name,
                    "queue_depth": tenant.queue_depth,
                    "summary": tenant.summary(),
                }
                for name, tenant in sorted(self.tenants.items())
            },
        }

    async def _cmd_tenant_add(self, args: dict[str, Any]) -> dict[str, Any]:
        name = args.get("name")
        if not isinstance(name, str):
            raise DaemonError("tenant-add requires a string 'name'")
        width = args.get("width", 32)
        if not isinstance(width, int):
            raise DaemonError("'width' must be an integer")
        backend = args.get("backend")
        if backend is not None and not isinstance(backend, str):
            raise DaemonError("'backend' must be a backend name string")
        enabled = args.get("smalta_enabled", True)
        if not isinstance(enabled, bool):
            raise DaemonError("'smalta_enabled' must be a boolean")
        keep_entries = args.get("keep_entries", False)
        if not isinstance(keep_entries, bool):
            raise DaemonError("'keep_entries' must be a boolean")
        try:
            config = TenantConfig(
                name=name,
                width=width,
                smalta_enabled=enabled,
                backend=backend,
                keep_entries=keep_entries,
            )
            self.add_tenant(config)
        except ValueError as exc:
            raise DaemonError(str(exc)) from exc
        return {"added": name}

    async def _cmd_tenant_remove(self, args: dict[str, Any]) -> dict[str, Any]:
        name = args.get("name")
        await self.remove_tenant(name if isinstance(name, str) else "")
        return {"removed": name}

    async def _cmd_tenant_list(self, args: dict[str, Any]) -> list[dict[str, Any]]:
        return [
            {
                "name": name,
                "width": tenant.config.width,
                "backend": tenant.pipeline.zebra.manager.backend_name,
                "running": tenant.running,
            }
            for name, tenant in sorted(self.tenants.items())
        ]

    async def _cmd_feed(self, args: dict[str, Any]) -> dict[str, Any]:
        """Enqueue updates carried in the request (a control-plane feed)."""
        tenant = self._tenant(args.get("tenant"))
        raw_updates = args.get("updates")
        if not isinstance(raw_updates, list):
            raise DaemonError("feed requires an 'updates' list")
        # A prefix of another width would land misrouted (narrower) or
        # half-apply a burst (wider), so the whole frame is refused.
        width = tenant.config.width
        updates: list[RouteUpdate] = []
        for raw in raw_updates:
            update = protocol.decode_update(raw)
            if update.prefix.width != width:
                raise DaemonError(
                    f"update for {update.prefix} is {update.prefix.width} bits "
                    f"wide; tenant {tenant.name!r} is {width}"
                )
            updates.append(update)
        as_burst = args.get("burst", False)
        if not isinstance(as_burst, bool):
            raise DaemonError("'burst' must be a boolean")
        if as_burst and len(updates) > 0:
            await tenant.feed_burst(updates)
        else:
            for update in updates:
                await tenant.feed_update(update)
        if args.get("end_of_rib", False) is True:
            await tenant.end_of_rib()
        return {"fed": len(updates)}

    async def _cmd_drain(self, args: dict[str, Any]) -> dict[str, Any]:
        tenant = self._tenant(args.get("tenant"))
        await tenant.drain()
        return {"drained": True, "queue_depth": tenant.queue_depth}

    async def _cmd_end_of_rib(self, args: dict[str, Any]) -> dict[str, Any]:
        tenant = self._tenant(args.get("tenant"))
        await tenant.end_of_rib()
        await tenant.drain()
        return {"end_of_rib": True}

    def _table_of(self, tenant: Tenant, which: object) -> dict[Prefix, Nexthop]:
        manager = tenant.pipeline.zebra.manager
        if which == "fib":
            return manager.fib_table()
        if which == "ot":
            return manager.state.ot_table()
        if which == "at":
            return manager.state.at_table()
        if which == "kernel":
            return tenant.pipeline.zebra.kernel.table()
        raise DaemonError(
            f"unknown table {which!r}; expected one of {', '.join(DUMP_TABLES)}"
        )

    async def _cmd_routes_dump(self, args: dict[str, Any]) -> dict[str, Any]:
        tenant = self._tenant(args.get("tenant"))
        which = args.get("table", "fib")
        table = self._table_of(tenant, which)
        return {
            "tenant": tenant.name,
            "table": which,
            "width": tenant.config.width,
            "routes": protocol.encode_table(table),
        }

    async def _cmd_diff_kernel(self, args: dict[str, Any]) -> dict[str, Any]:
        """What a full sync would download: kernel-table → FIB delta."""
        tenant = self._tenant(args.get("tenant"))
        zebra = tenant.pipeline.zebra
        delta = diff_tables(zebra.kernel.table(), zebra.manager.fib_table())
        return {
            "tenant": tenant.name,
            "in_sync": len(delta) == 0,
            "ops": [protocol.encode_download(download) for download in delta],
        }

    async def _cmd_channel_status(self, args: dict[str, Any]) -> dict[str, Any]:
        tenant = self._tenant(args.get("tenant"))
        channel = tenant.pipeline.zebra.channel
        status: dict[str, Any] = dict(channel.status())
        status["state"] = channel.state.value
        return status

    async def _cmd_snapshot(self, args: dict[str, Any]) -> dict[str, Any]:
        tenant = self._tenant(args.get("tenant"))
        await tenant.drain()
        downloads = tenant.pipeline.zebra.snapshot_now()
        return {"tenant": tenant.name, "burst": len(downloads)}

    async def _cmd_resync(self, args: dict[str, Any]) -> dict[str, Any]:
        tenant = self._tenant(args.get("tenant"))
        channel = tenant.pipeline.zebra.channel
        before = channel.resyncs
        channel.resync("manual")
        return {"tenant": tenant.name, "resyncs": channel.resyncs - before}

    async def _cmd_summary(self, args: dict[str, Any]) -> dict[str, Any]:
        tenant = self._tenant(args.get("tenant"))
        return {"tenant": tenant.name, "summary": tenant.summary()}

    async def _cmd_verify(self, args: dict[str, Any]) -> dict[str, Any]:
        """Fleet-wide OT ≡ FIB ≡ kernel: ONE joint walk per prefix width.

        Tenants of equal width contribute their three tables to a single
        VeriTable-style traversal whose agreement groups are the
        per-tenant triples — N tenants cost one walk, not N diffs.
        """
        names = args.get("tenants")
        if names is None:
            selected = sorted(self.tenants)
        elif isinstance(names, list) and all(isinstance(n, str) for n in names):
            selected = [self._tenant(n).name for n in names]
        else:
            raise DaemonError("'tenants' must be a list of tenant names")
        for name in selected:
            await self.tenants[name].drain()
        by_width: dict[int, list[str]] = {}
        for name in selected:
            by_width.setdefault(self.tenants[name].config.width, []).append(name)
        report: dict[str, Any] = {}
        walks = 0
        for width, group_names in sorted(by_width.items()):
            tables: list[dict[Prefix, Nexthop]] = []
            groups: list[tuple[int, int, int]] = []
            for name in group_names:
                tenant = self.tenants[name]
                base = len(tables)
                manager = tenant.pipeline.zebra.manager
                tables.append(manager.state.ot_table())
                tables.append(manager.fib_table())
                tables.append(tenant.pipeline.zebra.kernel.table())
                groups.append((base, base + 1, base + 2))
            divergences = joint_divergences(tables, width, groups)
            walks += 1
            diverged = {div.group[0] // 3 for div in divergences}
            for index, name in enumerate(group_names):
                count = sum(1 for d in divergences if d.group[0] // 3 == index)
                report[name] = {
                    "ok": index not in diverged,
                    "divergences": count,
                }
        return {
            "ok": all(entry["ok"] for entry in report.values()),
            "walks": walks,
            "tenants": report,
        }

    async def _cmd_shutdown(self, args: dict[str, Any]) -> dict[str, Any]:
        self.shutdown_requested.set()
        return {"stopping": True}

    # -- the Prometheus scrape endpoint ----------------------------------

    def _registry_for(self, path: str) -> Optional[str]:
        """Render the exposition for ``path``, or None for a 404."""
        if path in ("/metrics", "/metrics/"):
            return render_prometheus(self.obs.registry)
        if path.startswith("/metrics/"):
            tenant = self.tenants.get(path[len("/metrics/"):])
            if tenant is not None:
                return render_prometheus(tenant.obs.registry)
        return None

    async def _handle_scrape(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.0: one request, one response, connection close."""
        try:
            request_line = await reader.readline()
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else ""
            body = self._registry_for(path.split("?", 1)[0])
            if body is None:
                payload = b"not found\n"
                head = (
                    "HTTP/1.0 404 Not Found\r\n"
                    "Content-Type: text/plain; charset=utf-8\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                )
            else:
                payload = body.encode("utf-8")
                self._c_scrapes.inc()
                head = (
                    "HTTP/1.0 200 OK\r\n"
                    "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                )
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
