"""daemon_bursts: ``python -m repro.daemon`` in its own process.

Two tenants, one per backend the daemon serves bursts with (``single``
and ``packed``, named explicitly). One client process (this one) holds
one control connection per tenant and runs a closed loop on each: send
one FAQS-style flap burst as a ``feed`` frame with ``burst: true``, send
``drain``, wait for its ack, send the next burst. No snapshot runs in
the timed phase.

Frame ids are disjoint per tenant, so daemon-side spans (which carry
the id of the frame that caused them) join the client's request spans
unambiguously.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import statistics
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.core.equivalence import semantically_equivalent
from repro.core.ortc import ortc
from repro.daemon import protocol
from repro.net.nexthop import Nexthop
from repro.net.prefix import Prefix
from repro.net.update import RouteUpdate
from repro.obs.export import parse_prometheus
from repro.tools.daemon_soak import scrape

from perfbench import ledger
from perfbench.inputs import DAEMON_TABLE_FRAME, Inputs, replay
from perfbench.outcome import Outcome, metric
from perfbench.spans import NONE, SpanLog, clock, join_requests
from perfbench.stats import percentile, tail_or_max

HOST = "127.0.0.1"
#: (tenant name, backend).
TENANTS = (("single", "single"), ("packed", "packed"))
SETUP_REPEATS = 5
#: First frame id of each tenant's timed phase (set-up frames count from 1).
FRAME_BASE = {"single": 1_000_000, "packed": 2_000_000}
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
WIDTH = 32
#: The joined daemon spans must cover at least this share of the median
#: burst's round trip (about 0.4 measured on a 2-vCPU host; the rest is
#: the socket, the event loop, and the other tenant's work on the
#: daemon's one loop).
MIN_DAEMON_SHARE = 0.2


class DaemonFailure(RuntimeError):
    """The daemon refused a command, broke a connection or would not start."""


class Connection:
    """One control connection: ordered request/response frames."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.next_id = 0

    @classmethod
    async def open(cls, port: int) -> "Connection":
        # routes-dump answers are one line of the whole table: allow the
        # protocol's frame cap, not asyncio's 64 KiB default.
        reader, writer = await asyncio.open_connection(
            HOST, port, limit=protocol.MAX_LINE_BYTES
        )
        return cls(reader, writer)

    async def call(self, cmd: str, **args: Any) -> Any:
        self.next_id += 1
        self.writer.write(protocol.request_line(self.next_id, cmd, args))
        await self.writer.drain()
        frame = json.loads(await self.reader.readline() or b"null")
        if not isinstance(frame, dict) or frame.get("id") != self.next_id:
            raise DaemonFailure(f"{cmd}: no matching response ({frame!r:.200})")
        if frame.get("ok") is not True:
            raise DaemonFailure(f"{cmd}: {frame.get('error')}")
        return frame.get("result")

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


@dataclass
class Daemon:
    """A running daemon process and its two ports."""

    process: asyncio.subprocess.Process
    control_port: int
    metrics_port: int
    output: list[str] = field(default_factory=list)
    reader_task: Optional[asyncio.Task[None]] = None

    def peak_rss_kb(self) -> int:
        """The daemon's ``VmHWM``: its peak resident set, in KiB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise DaemonFailure("VmHWM missing from the daemon's /proc status")

    async def scrape(self, tenant: str) -> dict[str, float]:
        """The tenant's registry, through the daemon's Prometheus endpoint."""
        head, body = await scrape(self.metrics_port, f"/metrics/{tenant}")
        if not head.startswith("HTTP/1.0 200"):
            raise DaemonFailure(f"scrape of {tenant} failed: {head[:80]!r}")
        return parse_prometheus(body)

    async def stop(self, control: Optional[Connection]) -> None:
        """``shutdown`` over the wire, then wait for the process to exit;
        a daemon that cannot be shut down that way is killed."""
        try:
            if control is not None:
                await control.call("shutdown")
            await asyncio.wait_for(self.process.wait(), STOP_TIMEOUT_S)
        except (DaemonFailure, ConnectionError, ValueError, asyncio.TimeoutError):
            pass
        finally:
            if self.process.returncode is None:
                self.process.kill()
                await self.process.wait()
            if self.reader_task is not None:
                await self.reader_task


async def launch(root: Path, spans_out: Optional[Path]) -> Daemon:
    """Start the daemon (through the tracing launcher when ``spans_out``
    is set) and wait for it to report its ports."""
    daemon_args = ["--host", HOST, "--control-port", "0", "--metrics-port", "0"]
    for name, backend in TENANTS:
        daemon_args += ["--tenant", f"{name},backend={backend}"]
    if spans_out is None:
        command = [sys.executable, "-m", "repro.daemon", *daemon_args]
    else:
        launcher = Path(__file__).with_name("launch_daemon.py")
        command = [sys.executable, str(launcher), str(spans_out), *daemon_args]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
    process = await asyncio.create_subprocess_exec(
        *command,
        cwd=str(root),
        env=env,
        stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.STDOUT,
    )
    assert process.stdout is not None
    output: list[str] = []
    try:
        while True:
            raw = await asyncio.wait_for(process.stdout.readline(), START_TIMEOUT_S)
            if not raw:
                raise DaemonFailure("daemon exited early: " + "".join(output))
            line = raw.decode("utf-8", "replace")
            output.append(line)
            if line.startswith("daemon up:"):
                break
    except BaseException:
        if process.returncode is None:
            process.kill()
        await process.wait()
        raise
    # "daemon up: control HOST:PORT, metrics HOST:PORT, N tenant(s)"
    parts = line.replace(",", " ").split()
    control_port = int(parts[parts.index("control") + 1].rsplit(":", 1)[1])
    metrics_port = int(parts[parts.index("metrics") + 1].rsplit(":", 1)[1])
    daemon = Daemon(process, control_port, metrics_port, output)

    async def keep_reading() -> None:
        assert process.stdout is not None
        while line_bytes := await process.stdout.readline():
            output.append(line_bytes.decode("utf-8", "replace"))

    daemon.reader_task = asyncio.ensure_future(keep_reading())
    return daemon


def _encoded(updates: list[RouteUpdate]) -> list[dict[str, object]]:
    return [protocol.encode_update(update) for update in updates]


async def set_up(
    root: Path, inputs: Inputs, spans_out: Optional[Path] = None
) -> tuple[Daemon, dict[str, Connection], float, float]:
    """Launch the daemon, send the table over the wire to both tenants in
    BGP-sized frames, then End-of-RIB to one tenant after the other.
    Returns the daemon, one connection per tenant, the set-up time (launch
    to the last End-of-RIB ack) and the End-of-RIB round trips summed over
    the tenants: the fleet's initial snapshots."""
    rows = [RouteUpdate.announce(p, nh) for p, nh in inputs.table.items()]
    frames = [
        _encoded(rows[i:i + DAEMON_TABLE_FRAME])
        for i in range(0, len(rows), DAEMON_TABLE_FRAME)
    ]
    started = clock()
    daemon = await launch(root, spans_out)
    connections: dict[str, Connection] = {}

    async def load(name: str) -> None:
        connection = connections[name]
        for frame in frames:
            await connection.call("feed", tenant=name, updates=frame, burst=True)
        await connection.call("drain", tenant=name)

    try:
        for name, _ in TENANTS:
            connections[name] = await Connection.open(daemon.control_port)
        await asyncio.gather(*(load(name) for name, _ in TENANTS))
        end_of_rib_s = 0.0
        for name, _ in TENANTS:
            eor_started = clock()
            await connections[name].call("end-of-rib", tenant=name)
            end_of_rib_s += clock() - eor_started
    except BaseException:
        await _close(daemon, connections)
        raise
    return daemon, connections, clock() - started, end_of_rib_s


@dataclass
class Loop:
    """One tenant's closed loop over the timed phase."""

    tenant: str
    latencies_s: array
    starts: array
    frame_ids: list[tuple[int, int]]
    errors: list[str] = field(default_factory=list)
    wall_s: float = 0.0


def _frames(inputs: Inputs, tenant: str) -> tuple[list[bytes], list[tuple[int, int]]]:
    """Pre-encoded feed+drain frame pairs, one per burst."""
    payloads: list[bytes] = []
    ids: list[tuple[int, int]] = []
    base = FRAME_BASE[tenant]
    for index, burst in enumerate(inputs.bursts):
        feed_id, drain_id = base + 2 * index, base + 2 * index + 1
        feed = {"tenant": tenant, "updates": _encoded(burst), "burst": True}
        payloads.append(
            protocol.request_line(feed_id, "feed", feed)
            + protocol.request_line(drain_id, "drain", {"tenant": tenant})
        )
        ids.append((feed_id, drain_id))
    return payloads, ids


async def closed_loop(
    connection: Connection,
    tenant: str,
    payloads: list[bytes],
    ids: list[tuple[int, int]],
) -> Loop:
    """Send each burst's feed+drain pair and wait for both answers."""
    zeros = bytes(8 * len(ids))
    loop = Loop(tenant, array("d", zeros), array("d", zeros), ids)
    reader, writer = connection.reader, connection.writer
    started = clock()
    for index, payload in enumerate(payloads):
        sent = clock()
        writer.write(payload)
        await writer.drain()
        fed = await reader.readline()
        drained = await reader.readline()
        loop.latencies_s[index] = clock() - sent
        loop.starts[index] = sent
        for raw, frame_id in zip((fed, drained), ids[index]):
            frame = json.loads(raw or b"null")
            answered = isinstance(frame, dict) and frame.get("id") == frame_id
            if not answered or frame.get("ok") is not True:
                loop.errors.append(f"frame {frame_id}: {raw[:200]!r}")
    loop.wall_s = clock() - started
    return loop


@dataclass
class Phase:
    loops: list[Loop]
    wall_s: float
    samples_before: dict[str, dict[str, float]]
    samples_after: dict[str, dict[str, float]]
    updates: int


async def run_phase(
    daemon: Daemon, connections: dict[str, Connection], inputs: Inputs
) -> Phase:
    # Frames are encoded before the clock starts: the client's JSON work
    # is not the daemon's.
    frames = {name: _frames(inputs, name) for name, _ in TENANTS}
    before = {name: await daemon.scrape(name) for name, _ in TENANTS}
    gc.collect()
    started = clock()
    loops = await asyncio.gather(
        *(closed_loop(connections[name], name, *frames[name]) for name, _ in TENANTS)
    )
    wall = clock() - started
    after = {name: await daemon.scrape(name) for name, _ in TENANTS}
    return Phase(list(loops), wall, before, after, inputs.update_count * len(TENANTS))


async def gate(
    connections: dict[str, Connection], expected_ot: dict[Prefix, Nexthop]
) -> tuple[list[str], int, int, dict[str, dict[str, dict[Prefix, Nexthop]]]]:
    """The daemon's correctness gate. Returns one line per failure, the
    failed operations (each consumer error counts), the checks run, and
    each tenant's OT, AT and FIB as dumped over the wire."""
    problems: list[str] = []
    consumer_errors = 0
    checks = 1
    verify = await connections[TENANTS[0][0]].call("verify")
    if verify.get("ok") is not True:
        problems.append(f"joint OT = FIB = kernel walk failed: {verify}")
    tables: dict[str, dict[str, dict[Prefix, Nexthop]]] = {}
    for name, _ in TENANTS:
        connection = connections[name]
        checks += 3
        diff = await connection.call("diff-kernel", tenant=name)
        if diff.get("in_sync") is not True:
            ops = len(diff.get("ops", []))
            problems.append(f"{name}: kernel out of sync by {ops} ops")
        tables[name] = {}
        for which in ("ot", "at", "fib"):
            dump = await connection.call("routes-dump", tenant=name, table=which)
            tables[name][which] = protocol.decode_table(dump["routes"])
        if tables[name]["ot"] != expected_ot:
            problems.append(f"{name}: OT differs from the replayed feed")
        summary = (await connection.call("summary", tenant=name))["summary"]
        errors = round(summary.get("daemon_consumer_errors", 0))
        if errors:
            consumer_errors += errors
            problems.append(f"{name}: {errors} consumer errors")
    fibs = [tables[name]["fib"] for name, _ in TENANTS]
    checks += 2
    if not all(semantically_equivalent(fibs[0], fib, WIDTH) for fib in fibs[1:]):
        problems.append("the tenants' FIBs do not forward alike")
    if not semantically_equivalent(expected_ot, fibs[0], WIDTH):
        problems.append("the FIB does not forward like the expected OT")
    # A tenant's consumer-error line stands for that many failed items.
    failed = len(problems) + consumer_errors - sum(
        1 for line in problems if line.endswith(" consumer errors")
    )
    return problems, failed, checks, tables


def _esrch(phase: Phase) -> int:
    key = 'kernel_fib_ops_total{op="failed_uninstall"}'
    return round(
        sum(
            ledger.delta(phase.samples_before[name], phase.samples_after[name], key)
            for name, _ in TENANTS
        )
    )


def _phase_failures(phase: Phase, problems: list[str], failed: int) -> int:
    """Add the phase's error frames and ESRCH deletes to the gate's."""
    errors = [error for loop in phase.loops for error in loop.errors]
    problems.extend(errors)
    esrch = _esrch(phase)
    if esrch:
        problems.append(f"{esrch} deletes of missing kernel routes (ESRCH)")
    return failed + len(errors) + esrch


async def _close(daemon: Daemon, connections: dict[str, Connection]) -> None:
    first = next(iter(connections.values()), None)
    try:
        await daemon.stop(first)
    finally:
        for connection in connections.values():
            await connection.close()


async def _untraced(root: Path, inputs: Inputs) -> Outcome:
    setup_s: list[float] = []
    eor_s: list[float] = []
    for repeat in range(SETUP_REPEATS):
        gc.collect()
        daemon, connections, seconds, eor = await set_up(root, inputs)
        setup_s.append(seconds)
        eor_s.append(eor)
        if repeat < SETUP_REPEATS - 1:
            await _close(daemon, connections)
    try:
        phase = await run_phase(daemon, connections, inputs)
        peak_kb = daemon.peak_rss_kb()
        problems, failed, checks, tables = await gate(
            connections, replay(inputs.table, inputs.updates)
        )
    finally:
        await _close(daemon, connections)
    failed = _phase_failures(phase, problems, failed)
    downloads = sum(
        ledger.delta(
            phase.samples_before[name],
            phase.samples_after[name],
            f'smalta_fib_downloads_total{{cause="{cause}"}}',
        )
        for name, _ in TENANTS
        for cause in ("update", "snapshot")
    )
    ot_total = sum(len(t["ot"]) for t in tables.values())
    fib_total = sum(len(t["fib"]) for t in tables.values())
    at_total = sum(len(t["at"]) for t in tables.values())
    optimal_total = sum(len(ortc(t["ot"].items(), WIDTH)) for t in tables.values())
    latencies = [value for loop in phase.loops for value in loop.latencies_s]
    tail_label, tail_value = tail_or_max(eor_s)
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "updates_per_s": metric(phase.updates / phase.wall_s, "updates/s"),
        "latency_p50_us": metric(statistics.median(latencies) * 1e6, "us"),
        "latency_p99_us": metric(percentile(latencies, 0.99) * 1e6, "us"),
        "snapshot_p50_s": metric(statistics.median(eor_s), "s"),
        "snapshot_tail_s": metric(tail_value, "s"),
        "downloads_per_update": metric(downloads / phase.updates, "ratio"),
        "fib_ratio": metric(fib_total / ot_total, "ratio"),
        "at_drift": metric(at_total / optimal_total - 1.0, "ratio"),
        "rss_mb": metric(peak_kb / 1024, "MB"),
    }
    notes = {
        "latency_samples": len(latencies),
        "latency_unit": "burst: feed sent to drain acked",
        "snapshot_samples": (
            f"End-of-RIB round trips of both tenants, summed, "
            f"in {SETUP_REPEATS} set-ups"
        ),
        "snapshot_tail": tail_label,
        "timed_s": phase.wall_s,
    }
    return Outcome(metrics, _attempted(phase, checks), failed, problems, notes)


def _attempted(phase: Phase, checks: int) -> int:
    frames = 2 * sum(len(loop.frame_ids) for loop in phase.loops)
    return phase.updates + frames + checks


async def _traced(root: Path, inputs: Inputs) -> Outcome:
    daemon, connections, _, _ = await set_up(root, inputs)
    try:
        base = await run_phase(daemon, connections, inputs)
    finally:
        await _close(daemon, connections)

    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"daemon-spans-{os.getpid()}.json"
    daemon, connections, _, _ = await set_up(root, inputs, spans_path)
    try:
        phase = await run_phase(daemon, connections, inputs)
        problems, failed, checks, _ = await gate(
            connections, replay(inputs.table, inputs.updates)
        )
    finally:
        await _close(daemon, connections)
    try:
        dump = json.loads(spans_path.read_text(encoding="utf-8"))
    finally:
        spans_path.unlink(missing_ok=True)
        if not any(out_dir.iterdir()):
            out_dir.rmdir()
    failed = _phase_failures(phase, problems, failed)
    notes: dict[str, object] = {"traced_s": phase.wall_s, "untraced_s": base.wall_s}
    values, broken = _ledger(inputs, phase, dump, notes)
    values["trace.overhead"] = phase.wall_s / base.wall_s
    problems += broken
    failed += len(broken)
    metrics = ledger.per_layer_metrics(values)
    return Outcome(metrics, _attempted(phase, checks), failed, problems, notes)


def request_problems(joined: SpanLog, requests: int) -> tuple[list[str], list[float]]:
    """The daemon side of the join, which client-side coverage cannot see:
    every request (its root span is ``joined``'s span of the same index)
    must hold exactly one ``pipeline`` span, the consumer applying its
    burst, and the daemon's spans must account for at least
    :data:`MIN_DAEMON_SHARE` of the median request. Returns the failure
    lines and each request's daemon share."""
    inside = [0.0] * requests
    applied = [0] * requests
    names, starts, ends, parents = joined.names, joined.start, joined.end, joined.parent
    for index, parent in enumerate(parents):
        if parent != NONE and parents[parent] == NONE:
            inside[parent] += ends[index] - starts[index]
            applied[parent] += names[joined.name[index]] == "pipeline"
    shares = [inside[r] / (ends[r] - starts[r]) for r in range(requests)]
    problems = []
    unmatched = sum(1 for count in applied if count != 1)
    if unmatched:
        problems.append(
            f"{unmatched} of {requests} bursts joined no single daemon pipeline span"
        )
    share = statistics.median(shares)
    if share < MIN_DAEMON_SHARE:
        problems.append(
            f"daemon spans cover {share:.3f} of the median burst, "
            f"less than {MIN_DAEMON_SHARE}"
        )
    return problems, shares


def _ledger(
    inputs: Inputs, phase: Phase, dump: dict[str, Any], notes: dict[str, object]
) -> tuple[dict[str, float], list[str]]:
    """Join the daemon's spans to the client's bursts and read the ledger.
    Returns the per-layer values and the trace's failure lines."""
    client_spans = []
    tenant_of: list[str] = []
    for loop in phase.loops:
        for index, (sent, latency) in enumerate(zip(loop.starts, loop.latencies_s)):
            tenant_of.append(loop.tenant)
            frames = loop.frame_ids[index]
            client_spans.append((len(client_spans), sent, sent + latency, frames))
    joined = join_requests(client_spans, SpanLog.from_json(dump["spans"]))
    values = ledger.time_metrics(joined, phase.updates)
    for tenant, _ in TENANTS:
        values.update(
            ledger.time_metrics(
                joined,
                inputs.update_count,
                f"tenant_{tenant}.",
                ledger.TENANT_LAYERS,
                request=lambda request, tenant=tenant: tenant_of[request] == tenant,
            )
        )
    before = ledger.add_samples(*phase.samples_before.values())
    after = ledger.add_samples(*phase.samples_after.values())
    values.update(ledger.count_metrics(before, after, phase.updates))
    patches = ledger.delta(
        phase.samples_before["packed"],
        phase.samples_after["packed"],
        "smalta_packed_patches_total",
    )
    values["packed.patches_per_update"] = patches / inputs.update_count
    values.update(ledger.gc_metrics(joined))
    timed_frames = {
        frame for loop in phase.loops for pair in loop.frame_ids for frame in pair
    }
    waits_us = [
        (dequeued - enqueued) * 1e6
        for frame, enqueued, dequeued in dump["queue_waits"]
        if frame in timed_frames
    ]
    first = min(span[1] for span in client_spans)
    last = max(span[2] for span in client_spans)
    covered = sum(ledger.self_time_by_name(joined).values())
    values["tenant_queue_wait.p50_us"] = statistics.median(waits_us)
    values["tenant_queue_wait.p99_us"] = percentile(waits_us, 0.99)
    values["tenant.queue_depth_max"] = float(dump["queue_depth_max"])
    values["gc.gen2_collections"] = float(
        sum(1 for at in dump["gen2_times"] if first <= at <= last)
    )
    values["trace.coverage"] = covered / sum(loop.wall_s for loop in phase.loops)
    problems, shares = request_problems(joined, len(client_spans))
    problems += ledger.trace_problems(joined, values)
    notes.update(
        {
            "unit_of_work": "update (both tenants)",
            "units": phase.updates,
            "spans": len(joined),
            "queue_waits": len(waits_us),
            "daemon_share_median": round(statistics.median(shares), 3),
            "daemon_share_min": round(min(shares), 3),
        }
    )
    return values, problems


def run(root: Path, inputs: Inputs, traced: bool) -> Outcome:
    return asyncio.run(_traced(root, inputs) if traced else _untraced(root, inputs))
