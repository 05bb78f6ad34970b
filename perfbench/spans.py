"""Spans recorded from outside the program.

The benchmark wraps the public entry points of each layer (methods on
the classes, so every instance is covered) and records one span per
call: name, start, end, parent and request id. ``parent`` is the index
of the span open when it started. Every wrapped call is synchronous, so
spans of different asyncio tasks never interleave and one slot holds the
open span. The request id names what the span serves: one update, one
burst, one snapshot round, or one control frame in the daemon; it is a
:class:`contextvars.ContextVar`, so each asyncio task keeps its own.
Garbage-collector
pauses become ``gc_pause`` spans through :data:`gc.callbacks`, children
of whichever span was open when the collection started.

Spans stay in memory, in columns (:class:`SpanLog`), and are read (or
written, by the daemon launcher) when the run ends. A span's self time
is its duration minus its children's; see :func:`self_times`.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import importlib
import time
from array import array
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

#: Parent or request id of a span that has none.
NONE = -1

#: Every span's clock. The daemon join needs both processes on one time
#: base: on Linux ``perf_counter`` reads CLOCK_MONOTONIC.
clock = time.perf_counter

#: (module, class or None, attribute, span name) for every wrapped call.
#: ``diff_tables`` is wrapped at each module that imported it by name.
ENTRY_POINTS: tuple[tuple[str, Optional[str], str, str], ...] = (
    ("repro.router.pipeline", "RouterPipeline", "apply_update", "pipeline"),
    ("repro.router.pipeline", "RouterPipeline", "apply_burst", "pipeline"),
    ("repro.router.pipeline", "RouterPipeline", "end_of_rib", "pipeline"),
    ("repro.router.zebra", "Zebra", "apply_update", "zebra"),
    ("repro.router.zebra", "Zebra", "apply_batch", "zebra"),
    ("repro.router.zebra", "Zebra", "snapshot_now", "zebra"),
    ("repro.core.manager", "SmaltaManager", "apply", "manager"),
    ("repro.core.manager", "SmaltaManager", "apply_batch", "manager"),
    ("repro.core.manager", "SmaltaManager", "snapshot_now", "manager"),
    ("repro.core.smalta", "SmaltaState", "insert", "smalta_insert"),
    ("repro.core.smalta", "SmaltaState", "delete", "smalta_delete"),
    ("repro.core.smalta", "SmaltaState", "apply_batch", "smalta_batch"),
    ("repro.core.smalta", "SmaltaState", "snapshot", "smalta_snapshot"),
    ("repro.core.trie", "FibTrie", "ortc_table", "smalta_ortc"),
    # Passes 2 and 3 are private module functions: no public call bounds
    # them, and the snapshot split by pass needs them.
    ("repro.core.ortc", None, "_bottom_up", "ortc_bottom_up"),
    ("repro.core.ortc", None, "_top_down", "ortc_top_down"),
    ("repro.core.smalta", None, "diff_tables", "diff_tables"),
    ("repro.router.zebra", None, "diff_tables", "diff_tables"),
    ("repro.router.reconcile", None, "diff_tables", "diff_tables"),
    ("repro.core.outofband", None, "diff_tables", "diff_tables"),
    ("repro.daemon.server", None, "diff_tables", "diff_tables"),
    ("repro.router.channel", "DownloadChannel", "send", "zebra_kernel_apply"),
    ("repro.router.kernel", "KernelFib", "apply_all", "kernel_apply"),
    ("repro.daemon.protocol", None, "decode_update", "protocol_decode"),
)


class SpanLog:
    """Spans in columns: about 34 bytes a span, none of them a Python
    object the garbage collector would have to scan (a tuple per span
    would cost ~190 bytes and lengthen every full collection)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.rid = array("q")

    def code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def add(self, name: str, start: float, end: float, parent: int, rid: int) -> int:
        index = len(self.start)
        self.name.append(self.code(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.rid.append(rid)
        return index

    def __len__(self) -> int:
        return len(self.start)

    def __iter__(self) -> Iterator[tuple[str, float, float, int, int]]:
        names = self.names
        for index in range(len(self.start)):
            yield (
                names[self.name[index]],
                self.start[index],
                self.end[index],
                self.parent[index],
                self.rid[index],
            )

    @classmethod
    def of(cls, spans: Iterable[tuple[str, float, float, int, int]]) -> "SpanLog":
        log = cls()
        for span in spans:
            log.add(*span)
        return log

    def to_json(self) -> dict[str, list[Any]]:
        return {
            "names": self.names,
            "columns": [list(column) for column in self.columns()],
        }

    @classmethod
    def from_json(cls, raw: dict[str, list[Any]]) -> "SpanLog":
        log = cls()
        for name in raw["names"]:
            log.code(name)
        for column, values in zip(log.columns(), raw["columns"]):
            column.extend(values)
        return log

    def columns(self) -> tuple[array, array, array, array, array]:
        return (self.name, self.start, self.end, self.parent, self.rid)


class Tracer:
    """Installs the wrappers, records spans, and removes the wrappers."""

    def __init__(self) -> None:
        self.log = SpanLog()
        #: Per burst: ``(rid, enqueued, dequeued)``, the tenant queue wait.
        self.queue_waits: list[tuple[int, float, float]] = []
        self.queue_depth_max = 0
        #: When each full (generation 2) collection ended.
        self.gen2_times: list[float] = []
        #: The open span, in one slot rather than a ContextVar: setting a
        #: ContextVar allocates, and a collection that allocation triggers
        #: would be charged to a span it does not lie in.
        self.open_span = array("q", [NONE])
        self.rid: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_rid", default=NONE
        )
        self._enqueued: dict[int, tuple[float, int]] = {}
        self._gc_started: Optional[tuple[float, int, int]] = None
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def wrap(
        self, fn: Callable[..., Any], name: str, frame_rid: bool = False
    ) -> Callable[..., Any]:
        """``fn`` recorded as span ``name``, nested under the open span.

        With ``frame_rid`` (for ``decode_line``), the decoded frame's id
        becomes the span's request id and that of everything its handler
        does next: the join key with the client's spans.
        """
        log = self.log
        code = log.code(name)
        names, starts, ends, parents, rids = log.columns()
        open_span = self.open_span
        rid = self.rid

        # The lines around the call allocate no object the collector
        # tracks, so no collection starts between a clock read and the
        # slot update beside it: every pause nests inside the right span.
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            names.append(code)
            parents.append(open_span[0])
            rids.append(NONE)
            ends.append(0.0)
            starts.append(clock())
            open_span[0] = index
            try:
                result = fn(*args, **kwargs)
                if frame_rid:
                    frame_id = result.get("id")
                    rid.set(frame_id if isinstance(frame_id, int) else NONE)
                return result
            finally:
                open_span[0] = parents[index]
                ends[index] = clock()
                rids[index] = rid.get()

        return traced

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = (clock(), self.open_span[0], self.rid.get())
            return
        if self._gc_started is None:
            return
        start, parent, rid = self._gc_started
        self._gc_started = None
        end = clock()
        self.log.add("gc_pause", start, end, parent, rid)
        if info.get("generation") == 2:
            self.gen2_times.append(end)

    # -- installation ----------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, daemon: bool = False) -> None:
        """Wrap every entry point; ``daemon`` adds the control-plane ones."""
        for module_name, class_name, attr, name in ENTRY_POINTS:
            if not daemon and module_name.startswith("repro.daemon"):
                continue
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attr]
            if attr == "apply_burst":
                self._patch(owner, attr, self._wrap_apply_burst(original))
            else:
                self._patch(owner, attr, self.wrap(original, name))
        if daemon:
            from repro.daemon import protocol
            from repro.daemon.tenant import Tenant

            decode = self.wrap(protocol.decode_line, "protocol_decode", frame_rid=True)
            self._patch(protocol, "decode_line", decode)
            self._patch(Tenant, "feed_burst", self._wrap_feed_burst(Tenant.feed_burst))
        gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        """Restore every wrapped attribute and detach the GC callback."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the tenant queue ------------------------------------------------

    def _wrap_feed_burst(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Marks when each burst entered its tenant's queue. The call
        itself waits (for queue space) rather than works, so it records
        no span."""

        @functools.wraps(fn)
        async def traced(tenant: Any, burst: list[Any]) -> None:
            await fn(tenant, burst)
            self._enqueued[id(burst)] = (clock(), self.rid.get())
            self.queue_depth_max = max(self.queue_depth_max, tenant.queue_depth)

        return traced

    def _wrap_apply_burst(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """In the daemon a burst is applied by the tenant's consumer task;
        it inherits the request id of the frame that enqueued it."""
        inner = self.wrap(fn, "pipeline")

        @functools.wraps(fn)
        def traced(pipeline: Any, updates: list[Any]) -> Any:
            queued = self._enqueued.pop(id(updates), None)
            if queued is None:
                return inner(pipeline, updates)
            enqueued, frame_id = queued
            self.queue_waits.append((frame_id, enqueued, clock()))
            token = self.rid.set(frame_id)
            try:
                return inner(pipeline, updates)
            finally:
                self.rid.reset(token)

        return traced


def self_times(log: SpanLog) -> array:
    """Each span's duration minus the durations of its direct children.

    Children of one parent run one after another in one task (GC pauses
    included, since a collection interrupts whatever span is running),
    so their durations add without overlap.
    """
    starts, ends, parents = log.start, log.end, log.parent
    own = array("d", (end - start for start, end in zip(starts, ends)))
    for index, parent in enumerate(parents):
        if parent != NONE:
            own[parent] -= ends[index] - starts[index]
    return own


def join_requests(
    client_spans: Sequence[tuple[int, float, float, Iterable[int]]],
    daemon: SpanLog,
) -> SpanLog:
    """One tree out of two processes' spans, joined on the frame id.

    ``client_spans`` are ``(request, start, end, frame ids)``: one request
    is one burst, fed and drained with two frames. Each becomes a root
    ``daemon_request`` span, the first ``len(client_spans)`` spans of the
    result in order. Every daemon span that opened outside any other
    daemon span, carries one of the request's frame ids and lies within
    the request's interval becomes its child, and its descendants follow
    it. Both processes read :data:`clock` (CLOCK_MONOTONIC on Linux), so
    the intervals share one time base. Other daemon spans are dropped:
    set-up traffic, and work outside any wrapped call (a collection
    between frames, say) that ran after the client had its answer but
    still carries the id of the frame its task last decoded. In the
    result, every span's request id is its client request.
    """
    joined = SpanLog()
    root_of_frame: dict[int, int] = {}
    for request, start, end, frames in client_spans:
        root = joined.add("daemon_request", start, end, NONE, request)
        root_of_frame.update((frame, root) for frame in frames)
    root_starts, root_ends = joined.start, joined.end
    kept: dict[int, int] = {}
    for index, (name, start, end, parent, frame) in enumerate(daemon):
        if parent == NONE:
            new_parent = root_of_frame.get(frame, NONE)
            if new_parent != NONE and not (
                root_starts[new_parent] <= start and end <= root_ends[new_parent]
            ):
                continue
        else:
            new_parent = kept.get(parent, NONE)
        if new_parent == NONE:
            continue
        kept[index] = joined.add(name, start, end, new_parent, joined.rid[new_parent])
    return joined
