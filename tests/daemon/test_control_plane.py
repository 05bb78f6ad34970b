"""Control-plane contract: codec round-trips, every command live, scrape.

Three layers, matching the daemon's own:

1. the pure wire codecs of ``repro.daemon.protocol`` round-trip every
   value type losslessly (width-6 through width-128 prefixes, DROP,
   announce/withdraw, insert/delete, whole tables) and reject malformed
   frames with :class:`ProtocolError` — never a crash;
2. a live in-loop daemon answers **every** protocol command over a real
   control socket, keeps serving after malformed frames, reconciles a
   hand-corrupted kernel via ``diff-kernel``/``resync``, and serves
   pinned 0.0.4 expositions (``parse(render(r)) == flatten_samples(r)``)
   with correct 404s;
3. the ``python -m repro.daemon.ctl`` command classes run end-to-end
   against a daemon on a background thread — exit codes, rendered
   tables, and ``--json`` output included.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from typing import Optional

import pytest

from repro.core.downloads import FibDownload
from repro.daemon import ctl, protocol
from repro.daemon.ctl import CtlError, DaemonClient
from repro.daemon.server import AggregationDaemon
from repro.daemon.tenant import TenantConfig
from repro.net.nexthop import DROP, Nexthop
from repro.net.prefix import Prefix
from repro.net.update import RouteUpdate
from repro.obs.export import flatten_samples, parse_prometheus, render_prometheus
from repro.router.pipeline import RouterPipeline

NH = [Nexthop(1, "nh1"), Nexthop(2, "nh2"), Nexthop(3, "nh3")]


def p(bits: str, width: int = 32) -> Prefix:
    return Prefix.from_bits(bits, width)


# -- 1. pure codec round-trips -------------------------------------------


@pytest.mark.parametrize("width", [6, 32, 128])
def test_prefix_roundtrip(width):
    prefixes = [
        Prefix.root(width),
        Prefix.from_bits("1", width),
        Prefix.from_bits("01" * (width // 2), width),
    ]
    for prefix in prefixes:
        assert protocol.decode_prefix(protocol.encode_prefix(prefix)) == prefix


def test_nexthop_roundtrip_including_drop():
    for nexthop in (*NH, DROP):
        decoded = protocol.decode_nexthop(protocol.encode_nexthop(nexthop))
        assert decoded == nexthop
    assert protocol.decode_nexthop(protocol.encode_nexthop(DROP)) is DROP


def test_update_roundtrip():
    announce = RouteUpdate.announce(p("1010"), NH[0], 12.5)
    withdraw = RouteUpdate.withdraw(p("01"), 13.0)
    for update in (announce, withdraw):
        assert protocol.decode_update(protocol.encode_update(update)) == update


def test_download_roundtrip():
    for download in (FibDownload.insert(p("11"), NH[1]), FibDownload.delete(p("0"))):
        raw = protocol.encode_download(download)
        assert protocol.decode_download(raw) == download


def test_table_roundtrip_sorted():
    table = {p("1"): NH[0], p("0001"): NH[1], p("01"): DROP}
    encoded = protocol.encode_table(table)
    assert encoded == sorted(encoded)
    assert protocol.decode_table(encoded) == table


def test_frame_roundtrip():
    frame = protocol.decode_line(protocol.request_line(7, "ping", {"a": 1}))
    assert frame == {"id": 7, "cmd": "ping", "args": {"a": 1}}
    ok = protocol.decode_line(protocol.ok_response(7, {"pong": True}))
    assert ok == {"id": 7, "ok": True, "result": {"pong": True}}
    err = protocol.decode_line(protocol.error_response(None, "boom"))
    assert err == {"id": None, "ok": False, "error": "boom"}


@pytest.mark.parametrize(
    "decoder, bad",
    [
        (protocol.decode_prefix, [1, 2]),
        (protocol.decode_prefix, "10/2"),
        (protocol.decode_prefix, [7, 1, 32]),  # host bits below length
        (protocol.decode_nexthop, [1]),
        (protocol.decode_nexthop, ["x", "y"]),
        (protocol.decode_update, {"kind": "mystery", "prefix": [0, 0, 32]}),
        (protocol.decode_update, "not an object"),
        (protocol.decode_download, {"op": "mystery", "prefix": [0, 0, 32]}),
        (protocol.decode_table, {"not": "a list"}),
        (protocol.decode_table, [[[0, 0, 32]]]),
        (protocol.decode_line, b"not json\n"),
        (protocol.decode_line, b"[1, 2, 3]\n"),
        (protocol.decode_line, b"\xff\xfe\n"),
    ],
)
def test_codec_rejects_malformed(decoder, bad):
    with pytest.raises(protocol.ProtocolError):
        decoder(bad)


def test_oversized_frame_refused_before_parsing():
    line = b"x" * (protocol.MAX_LINE_BYTES + 1)
    with pytest.raises(protocol.ProtocolError, match="exceeds"):
        protocol.decode_line(line)


# -- 2. every command against a live daemon ------------------------------


FEED = [
    RouteUpdate.announce(p("0"), NH[0], 0.0),
    RouteUpdate.announce(p("00"), NH[0], 0.001),
    RouteUpdate.announce(p("1"), NH[1], 0.002),
    RouteUpdate.announce(p("10"), NH[2], 1.0),
    RouteUpdate.withdraw(p("00"), 1.001),
]


def reference_log_and_fib(burst_boundary: Optional[int]):
    """Batch ground truth for FEED: sequential, or one burst at the
    boundary followed by the remainder sequentially."""
    from repro.core.downloads import DownloadLog

    log = DownloadLog(keep_entries=True)
    pipeline = RouterPipeline(width=32, download_log=log)
    pipeline.end_of_rib()
    if burst_boundary is None:
        for update in FEED:
            pipeline.apply_update(update)
    else:
        pipeline.apply_burst(FEED[:burst_boundary])
        for update in FEED[burst_boundary:]:
            pipeline.apply_update(update)
    fib = pipeline.zebra.manager.fib_table()
    pipeline.close()
    return log.downloads, fib


async def live_session() -> None:
    daemon = AggregationDaemon()
    # backend pinned: the tenant-list check below wants one of each,
    # regardless of what SMALTA_BACKEND resolves the default to
    daemon.add_tenant(
        TenantConfig(name="r1", backend="single", keep_entries=True), start=False
    )
    await daemon.start()
    client = await DaemonClient.connect("127.0.0.1", daemon.control_port)
    try:
        # ping
        pong = await client.call("ping")
        assert pong == {
            "pong": True,
            "protocol": protocol.PROTOCOL_VERSION,
            "tenants": 1,
        }

        # tenant-add (wire) + tenant-list
        added = await client.call(
            "tenant-add", name="r2", backend="packed", keep_entries=True
        )
        assert added == {"added": "r2"}
        listing = await client.call("tenant-list")
        assert [entry["name"] for entry in listing] == ["r1", "r2"]
        assert {entry["backend"] for entry in listing} == {"single", "packed"}
        assert all(entry["running"] for entry in listing)
        with pytest.raises(CtlError, match="already exists"):
            await client.call("tenant-add", name="r2")

        # a second packed tenant takes the same feed as r1, so the two
        # backends can be held to byte-identical download logs below
        await client.call(
            "tenant-add", name="r3", backend="packed", keep_entries=True
        )
        listing = await client.call("tenant-list")
        assert [entry["backend"] for entry in listing] == [
            "single",
            "packed",
            "packed",
        ]

        # end-of-rib + feed: r1 sequential, r2 one burst then the rest
        await client.call("end-of-rib", tenant="r1")
        fed = await client.call(
            "feed",
            tenant="r1",
            updates=[protocol.encode_update(u) for u in FEED],
        )
        assert fed == {"fed": len(FEED)}
        await client.call(
            "feed",
            tenant="r2",
            updates=[protocol.encode_update(u) for u in FEED[:3]],
            burst=True,
            end_of_rib=False,
        )
        # ... wrong order on purpose is NOT tested here; r2 got a burst
        # before End-of-RIB, which the manager treats as pre-EoR loads.
        await client.call("end-of-rib", tenant="r2")
        for update in FEED[3:]:
            await client.call(
                "feed", tenant="r2", updates=[protocol.encode_update(update)]
            )
        await client.call("end-of-rib", tenant="r3")
        fed = await client.call(
            "feed",
            tenant="r3",
            updates=[protocol.encode_update(u) for u in FEED],
        )
        assert fed == {"fed": len(FEED)}
        drained = await client.call("drain", tenant="r1")
        assert drained == {"drained": True, "queue_depth": 0}
        await client.call("drain", tenant="r2")
        await client.call("drain", tenant="r3")

        # routes-dump: r1's FIB equals the batch pipeline's, via the wire
        expected_log, expected_fib = reference_log_and_fib(None)
        dump = await client.call("routes-dump", tenant="r1", table="fib")
        assert dump["routes"] == protocol.encode_table(expected_fib)
        assert daemon.tenants["r1"].download_log.downloads == expected_log
        # packed tenant, same feed: byte-identical download log and FIB
        assert daemon.tenants["r3"].download_log.downloads == expected_log
        dump3 = await client.call("routes-dump", tenant="r3", table="fib")
        assert dump3["routes"] == protocol.encode_table(expected_fib)
        assert (await client.call("tenant-remove", name="r3")) == {
            "removed": "r3"
        }
        for table in ("ot", "at", "kernel"):
            result = await client.call("routes-dump", tenant="r1", table=table)
            assert result["table"] == table
        with pytest.raises(CtlError, match="unknown table"):
            await client.call("routes-dump", tenant="r1", table="rib-in")

        # diff-kernel: in sync, then hand-corrupt the kernel, then resync
        diff = await client.call("diff-kernel", tenant="r1")
        assert diff["in_sync"] is True and diff["ops"] == []
        rogue = FibDownload.insert(p("111111"), NH[2])
        daemon.tenants["r1"].pipeline.zebra.kernel.apply(rogue)
        diff = await client.call("diff-kernel", tenant="r1")
        assert diff["in_sync"] is False
        assert len(diff["ops"]) >= 1
        resynced = await client.call("resync", tenant="r1")
        assert resynced["resyncs"] == 1
        diff = await client.call("diff-kernel", tenant="r1")
        assert diff["in_sync"] is True

        # channel-status carries the DownloadChannel counters + state
        status = await client.call("channel-status", tenant="r1")
        assert status["state"] == "healthy"
        assert status["resyncs"] == 1
        assert "pending" in status and "ops_sent" in status

        # snapshot: forced re-optimization reports its burst size
        snap = await client.call("snapshot", tenant="r1")
        assert snap["tenant"] == "r1" and snap["burst"] >= 0

        # summary + status + verify
        summary = (await client.call("summary", tenant="r1"))["summary"]
        assert summary["updates_received"] == float(len(FEED))
        overall = await client.call("status")
        assert set(overall["tenants"]) == {"r1", "r2"}
        assert overall["uptime_s"] >= 0.0
        verdict = await client.call("verify")
        assert verdict["ok"] is True
        assert verdict["walks"] == 1  # one width → ONE joint walk
        assert set(verdict["tenants"]) == {"r1", "r2"}
        named = await client.call("verify", tenants=["r2"])
        assert set(named["tenants"]) == {"r2"}

        # tenant-remove
        removed = await client.call("tenant-remove", name="r2")
        assert removed == {"removed": "r2"}
        assert (await client.call("ping"))["tenants"] == 1

        # error frames never kill the connection
        for exc_pattern, call in [
            ("unknown command", lambda: client.call("make-coffee")),
            ("no such tenant", lambda: client.call("drain", tenant="r9")),
            ("no such tenant", lambda: client.call("summary", tenant="r2")),
            ("'updates' list", lambda: client.call("feed", tenant="r1")),
            (
                r"unknown trie backend 'sharded' \(known: packed, single\)",
                lambda: client.call("tenant-add", name="r4", backend="sharded"),
            ),
        ]:
            with pytest.raises(CtlError, match=exc_pattern):
                await call()
            assert (await client.call("ping"))["pong"] is True

        # shutdown: sets the event (serve_until_shutdown acts on it)
        assert await client.call("shutdown") == {"stopping": True}
        assert daemon.shutdown_requested.is_set()
    finally:
        await client.close()
        await daemon.stop()


def test_every_command_live():
    asyncio.run(live_session())


async def raw_frames_session() -> None:
    """Malformed wire bytes produce error frames, never dropped conns."""
    daemon = AggregationDaemon()
    await daemon.start()
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", daemon.control_port
    )
    try:
        bad_lines = [
            b"not json at all\n",
            b"[1, 2, 3]\n",
            b'{"no": "cmd field"}\n',
            b'{"cmd": 5}\n',
            b'{"id": 9, "cmd": "ping", "args": [1]}\n',
            b'{"id": "str-id", "cmd": "nope"}\n',
        ]
        for line in bad_lines:
            writer.write(line)
            await writer.drain()
            frame = protocol.decode_line(await reader.readline())
            assert frame["ok"] is False, line
            assert isinstance(frame["error"], str)
        # id echoes when parseable, null otherwise
        writer.write(b'{"id": 9, "cmd": "nope"}\n')
        await writer.drain()
        frame = protocol.decode_line(await reader.readline())
        assert frame["id"] == 9 and frame["ok"] is False
        # blank lines are skipped, and the connection still works
        writer.write(b"\n" + protocol.request_line(1, "ping", {}))
        await writer.drain()
        frame = protocol.decode_line(await reader.readline())
        assert frame["ok"] is True and frame["result"]["pong"] is True
        errors = flatten_samples(daemon.obs.registry)[
            "daemon_protocol_errors_total"
        ]
        assert errors == float(len(bad_lines) + 1)
    finally:
        writer.close()
        await writer.wait_closed()
        await daemon.stop()


def test_malformed_frames_keep_serving():
    asyncio.run(raw_frames_session())


#: asyncio's default stream limit, which control frames may exceed.
ASYNCIO_DEFAULT_LIMIT = 64 * 1024


async def large_frames_session() -> None:
    """Frames past 64 KiB travel both ways, up to MAX_LINE_BYTES."""
    daemon = AggregationDaemon()
    daemon.add_tenant(TenantConfig(name="r1", backend="single"), start=False)
    await daemon.start()
    client = await DaemonClient.connect("127.0.0.1", daemon.control_port)
    try:
        nexthop = Nexthop(7, "ge-0-0-1.upstream-transit-a.core1.example.net")
        updates = [
            protocol.encode_update(
                RouteUpdate.announce(Prefix((10 << 24) | (i << 8), 24, 32), nexthop)
            )
            for i in range(1000)
        ]
        args = {"tenant": "r1", "updates": updates, "burst": True, "end_of_rib": True}
        assert len(protocol.request_line(1, "feed", args)) > ASYNCIO_DEFAULT_LIMIT
        assert await client.call("feed", **args) == {"fed": 1000}
        await client.call("drain", tenant="r1")

        dump = await client.call("routes-dump", tenant="r1", table="ot")
        assert len(dump["routes"]) == 1000
        assert len(protocol.ok_response(1, dump)) > ASYNCIO_DEFAULT_LIMIT
    finally:
        await client.close()
        await daemon.stop()


def test_frames_over_64_kib_both_ways():
    asyncio.run(large_frames_session())



async def mixed_width_feed_session() -> None:
    """A feed frame holding a prefix of another width than the tenant's
    gets one error frame and enqueues nothing from that frame."""
    daemon = AggregationDaemon()
    daemon.add_tenant(TenantConfig(name="r1", backend="single"), start=False)
    await daemon.start()
    client = await DaemonClient.connect("127.0.0.1", daemon.control_port)

    async def tables() -> list[object]:
        await client.call("drain", tenant="r1")
        return [
            (await client.call("routes-dump", tenant="r1", table=table))["routes"]
            for table in ("ot", "at", "kernel")
        ]

    try:
        await client.call("end-of-rib", tenant="r1")
        first = [protocol.encode_update(FEED[0])]
        await client.call("feed", tenant="r1", updates=first)
        before = await tables()
        for stray in (p("101", 6), p("1" * 40, 64)):
            updates = [FEED[2], RouteUpdate.announce(stray, NH[2])]
            for burst in (False, True):
                with pytest.raises(CtlError, match="bits wide"):
                    await client.call(
                        "feed",
                        tenant="r1",
                        updates=[protocol.encode_update(u) for u in updates],
                        burst=burst,
                    )
        assert await tables() == before
        assert daemon.tenants["r1"].stats.consumer_errors == []
    finally:
        await client.close()
        await daemon.stop()


def test_mixed_width_feed_frame_is_refused():
    asyncio.run(mixed_width_feed_session())


async def oversized_frame_session() -> None:
    """A line past MAX_LINE_BYTES: one error frame, then that connection
    closes; the counter moves and other connections are served."""
    daemon = AggregationDaemon()
    await daemon.start()
    try:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", daemon.control_port
        )
        # No newline: the daemon must refuse the line without waiting
        # for its end, and it has read every byte sent when it does.
        writer.write(b"x" * (protocol.MAX_LINE_BYTES + 1))
        await writer.drain()
        frame = protocol.decode_line(await reader.readline())
        assert frame == {
            "id": None,
            "ok": False,
            "error": f"frame exceeds {protocol.MAX_LINE_BYTES} bytes",
        }
        assert await reader.readline() == b""
        writer.close()
        await writer.wait_closed()
        errors = flatten_samples(daemon.obs.registry)["daemon_protocol_errors_total"]
        assert errors == 1.0

        client = await DaemonClient.connect("127.0.0.1", daemon.control_port)
        try:
            assert (await client.call("ping"))["pong"] is True
        finally:
            await client.close()
    finally:
        await daemon.stop()


def test_oversized_frame_gets_error_frame_and_close():
    asyncio.run(oversized_frame_session())


async def http_get(port: int, path: str) -> tuple[str, str]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode("latin-1"))
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.decode("utf-8").partition("\r\n\r\n")
    return head, body


async def scrape_session() -> None:
    daemon = AggregationDaemon()
    daemon.add_tenant(TenantConfig(name="r1"), start=False)
    await daemon.start()
    try:
        tenant = daemon.tenants["r1"]
        await tenant.end_of_rib()
        for update in FEED:
            await tenant.feed_update(update)
        await tenant.drain()

        # the pinned exposition invariant, as served over HTTP
        head, body = await http_get(daemon.metrics_port, "/metrics/r1")
        assert head.startswith("HTTP/1.0 200 OK")
        assert "text/plain; version=0.0.4; charset=utf-8" in head
        assert parse_prometheus(body) == flatten_samples(tenant.obs.registry)
        assert body == render_prometheus(tenant.obs.registry)
        samples = parse_prometheus(body)
        assert samples["smalta_updates_received_total"] == float(len(FEED))
        assert samples["tenant_feed_items_total"] >= float(len(FEED))

        # the daemon registry at the bare path, scrape counter included
        head, body = await http_get(daemon.metrics_port, "/metrics")
        assert head.startswith("HTTP/1.0 200 OK")
        daemon_samples = parse_prometheus(body)
        assert daemon_samples["daemon_tenants"] == 1.0
        assert daemon_samples["daemon_scrapes_total"] >= 1.0

        # 404s: unknown tenant, unknown path
        for path in ("/metrics/r9", "/somewhere", "/"):
            head, body = await http_get(daemon.metrics_port, path)
            assert head.startswith("HTTP/1.0 404"), path
    finally:
        await daemon.stop()


def test_scrape_endpoint_roundtrip_and_404():
    asyncio.run(scrape_session())


# -- 3. the ctl CLI end-to-end -------------------------------------------


class DaemonThread:
    """A daemon serving on a background thread for the sync CLI to hit."""

    def __init__(self) -> None:
        self.control_port = 0
        self.metrics_port = 0
        self.ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        daemon = AggregationDaemon()
        daemon.add_tenant(
            TenantConfig(name="r1", backend="single", keep_entries=True),
            start=False,
        )
        await daemon.start()
        tenant = daemon.tenants["r1"]
        await tenant.end_of_rib()
        for update in FEED:
            await tenant.feed_update(update)
        await tenant.drain()
        self.control_port = daemon.control_port
        self.metrics_port = daemon.metrics_port
        self.ready.set()
        await daemon.serve_until_shutdown()

    def __enter__(self) -> "DaemonThread":
        self.thread.start()
        assert self.ready.wait(timeout=10), "daemon failed to start"
        return self

    def __exit__(self, *exc: object) -> None:
        if self.thread.is_alive():
            ctl.main(["--port", str(self.control_port), "shutdown"])
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


def run_ctl(port: int, *argv: str) -> int:
    return ctl.main(["--port", str(port), *argv])


def test_ctl_cli_end_to_end(capsys):
    with DaemonThread() as served:
        port = served.control_port

        assert run_ctl(port, "ping") == 0
        out = capsys.readouterr().out
        assert "pong (protocol v1, 1 tenant(s))" in out

        assert run_ctl(port, "--json", "ping") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"pong": True, "protocol": 1, "tenants": 1}

        assert run_ctl(port, "status") == 0
        out = capsys.readouterr().out
        assert "uptime:" in out and "r1" in out and "single" in out

        assert run_ctl(port, "tenant-add", "r2", "--backend", "packed") == 0
        capsys.readouterr()
        assert run_ctl(port, "tenant-list") == 0
        out = capsys.readouterr().out
        assert "r1" in out and "r2" in out and "packed" in out

        assert run_ctl(port, "routes-dump", "r1", "--table", "fib") == 0
        out = capsys.readouterr().out
        _, expected_fib = reference_log_and_fib(None)
        assert f"r1/fib: {len(expected_fib)} route(s)" in out
        for prefix in expected_fib:
            assert str(prefix) in out

        assert run_ctl(port, "--json", "routes-dump", "r1") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["routes"] == json.loads(
            json.dumps(protocol.encode_table(expected_fib))
        )

        assert run_ctl(port, "diff-kernel", "r1") == 0
        assert "kernel in sync with FIB" in capsys.readouterr().out

        assert run_ctl(port, "channel-status", "r1") == 0
        out = capsys.readouterr().out
        assert "state" in out and "healthy" in out

        assert run_ctl(port, "snapshot", "r1") == 0
        assert "snapshot downloaded" in capsys.readouterr().out

        assert run_ctl(port, "resync", "r1") == 0
        capsys.readouterr()

        assert run_ctl(port, "verify") == 0
        out = capsys.readouterr().out
        assert "all tenants consistent (1 joint walk(s))" in out

        assert run_ctl(port, "verify", "r2") == 0
        capsys.readouterr()

        assert run_ctl(port, "tenant-remove", "r2") == 0
        assert "removed tenant r2" in capsys.readouterr().out

        # failures: unknown tenant → exit 1, in-band error message
        assert run_ctl(port, "routes-dump", "r9") == 1
        assert "no such tenant" in capsys.readouterr().out

        assert run_ctl(port, "shutdown") == 0
        assert "daemon stopping" in capsys.readouterr().out


def test_ctl_connection_refused_exits_2(capsys):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    assert ctl.main(["--port", str(free_port), "ping"]) == 2
    assert "cannot connect" in capsys.readouterr().out
