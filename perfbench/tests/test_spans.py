"""Self time from nested spans: never negative, and the parts add up to
the root span's duration, GC pauses and joined daemon spans included."""

import gc
import math
import random

from perfbench.daemon_load import request_problems
from perfbench.ledger import trace_problems
from perfbench.spans import NONE, SpanLog, Tracer, join_requests, self_times
from repro.net.nexthop import NexthopRegistry
from repro.net.update import RouteUpdate
from repro.router.pipeline import RouterPipeline
from repro.workloads import generate_table, generate_update_trace


def roots(log: SpanLog) -> list[int]:
    return [index for index, parent in enumerate(log.parent) if parent == NONE]


def assert_adds_up(log: SpanLog) -> None:
    own = self_times(log)
    assert min(own) >= 0.0
    total_roots = sum(log.end[i] - log.start[i] for i in roots(log))
    assert math.isclose(sum(own), total_roots, rel_tol=1e-9, abs_tol=1e-9)


def test_wrapped_calls_nest_and_gc_pauses_are_children():
    tracer = Tracer()

    def inner() -> None:
        gc.collect()

    def outer() -> None:
        traced_inner()
        gc.collect()

    traced_inner = tracer.wrap(inner, "inner")
    traced_outer = tracer.wrap(outer, "outer")
    tracer.install()
    try:
        traced_outer()
    finally:
        tracer.remove()
    spans = list(tracer.log)
    names = [span[0] for span in spans]
    assert len(tracer.gen2_times) >= 2
    outer_index = names.index("outer")
    inner_index = names.index("inner")
    assert spans[inner_index][3] == outer_index
    assert {spans[i][3] for i, name in enumerate(names) if name == "gc_pause"} >= {
        outer_index,
        inner_index,
    }
    assert_adds_up(tracer.log)


def test_collections_the_wrapper_triggers_nest_inside_its_span():
    tracer = Tracer()
    traced = tracer.wrap(lambda: [[] for _ in range(3)], "work")
    thresholds = gc.get_threshold()
    tracer.install()
    # Collect on nearly every allocation, the wrapper's own included.
    gc.set_threshold(1)
    try:
        for _ in range(300):
            traced()
    finally:
        gc.set_threshold(*thresholds)
        tracer.remove()
    assert "gc_pause" in tracer.log.names
    assert_adds_up(tracer.log)


def test_a_negative_self_time_fails_the_trace():
    inside = SpanLog.of([("a", 0.0, 1.0, NONE, 0), ("b", 0.5, 1.0, 0, 0)])
    outlasting = SpanLog.of([("a", 0.0, 1.0, NONE, 0), ("b", 0.5, 1.6, 0, 0)])
    assert trace_problems(inside, {"trace.coverage": 1.0}) == []
    assert trace_problems(outlasting, {"trace.coverage": 1.0}) == [
        "1 spans have a negative self time"
    ]
    assert trace_problems(inside, {"trace.coverage": 0.8}) == [
        "trace coverage 0.800 is outside 1 ± 0.1"
    ]


def test_pipeline_spans_add_up_to_the_calls_into_it():
    rng = random.Random(5)
    nexthops = NexthopRegistry().create_many(4)
    table = generate_table(300, nexthops, rng)
    trace = generate_update_trace(table, 200, nexthops, rng)
    pipeline = RouterPipeline(backend="single")
    pipeline.load_table(table)
    pipeline.end_of_rib()
    tracer = Tracer()
    tracer.install()
    try:
        for index, update in enumerate(trace):
            tracer.rid.set(index)
            pipeline.apply_update(update)
        pipeline.apply_burst([RouteUpdate.withdraw(p) for p in list(table)[:20]])
        pipeline.zebra.snapshot_now()
    finally:
        tracer.remove()
    names = set(tracer.log.names)
    assert {"pipeline", "zebra", "manager", "smalta_ortc", "ortc_bottom_up",
            "ortc_top_down", "diff_tables", "smalta_snapshot", "smalta_batch"} <= names
    root_names = {tracer.log.names[tracer.log.name[i]] for i in roots(tracer.log)}
    assert root_names <= {"pipeline", "zebra", "gc_pause"}
    assert_adds_up(tracer.log)
    # The wrappers are gone: a later call records nothing.
    before = len(tracer.log)
    pipeline.apply_update(trace[0])
    assert len(tracer.log) == before


def test_daemon_spans_join_the_client_request_by_frame_id():
    daemon = SpanLog.of(
        [
            ("protocol_decode", 1.00, 1.01, NONE, 7),    # feed frame of request 0
            ("protocol_decode", 1.02, 1.05, NONE, 7),
            ("pipeline", 1.10, 1.40, NONE, 7),           # applied by the consumer
            ("smalta_batch", 1.15, 1.35, 2, 7),
            ("gc_pause", 1.20, 1.25, 3, 7),              # a pause inside the batch
            ("protocol_decode", 1.45, 1.46, NONE, 8),    # drain frame of request 0
            ("gc_pause", 1.47, 1.48, NONE, 8),           # a pause between spans
            ("gc_pause", 1.55, 1.60, NONE, 8),           # after the answer: dropped
            ("protocol_decode", 0.10, 0.20, NONE, 3),    # set-up traffic: no request
            ("pipeline", 2.10, 2.30, NONE, 21),          # request 1
        ]
    )
    client = [(0, 0.95, 1.50, (7, 8)), (1, 2.00, 2.40, (20, 21))]
    joined = join_requests(client, daemon)
    joined_spans = list(joined)
    assert len(joined_spans) == 2 + 8
    assert all(span[1] != 0.10 for span in joined_spans)
    assert {span[4] for span in joined_spans if span[1] < 1.6} == {0}
    own = self_times(joined)
    assert min(own) >= 0.0
    assert math.isclose(sum(own), (1.50 - 0.95) + (2.40 - 2.00))
    by_name: dict[str, float] = {}
    for span, time_own in zip(joined_spans, own):
        by_name[span[0]] = by_name.get(span[0], 0.0) + time_own
    assert math.isclose(by_name["gc_pause"], 0.06)
    assert math.isclose(by_name["smalta_batch"], 0.15)
    request_0 = (1.50 - 0.95) - (0.01 + 0.03 + 0.30 + 0.01 + 0.01)
    request_1 = (2.40 - 2.00) - 0.20
    assert math.isclose(by_name["daemon_request"], request_0 + request_1)
    problems, shares = request_problems(joined, 2)
    assert problems == []
    assert [round(share, 3) for share in shares] == [
        round(0.36 / 0.55, 3),
        round(0.20 / 0.40, 3),
    ]


def test_a_burst_no_daemon_pipeline_span_joined_fails_the_trace():
    daemon = SpanLog.of(
        [
            ("protocol_decode", 1.00, 1.01, NONE, 7),
            ("pipeline", 1.10, 1.40, NONE, 7),
            ("protocol_decode", 2.05, 2.06, NONE, 20),
            ("pipeline", 2.30, 2.50, NONE, 21),          # ends after the answer
        ]
    )
    client = [(0, 0.95, 1.50, (7, 8)), (1, 2.00, 2.40, (20, 21))]
    problems, shares = request_problems(join_requests(client, daemon), 2)
    assert problems == ["1 of 2 bursts joined no single daemon pipeline span"]
    assert math.isclose(shares[1], 0.01 / 0.40)


def test_span_log_round_trips_through_json():
    log = SpanLog.of([("a", 0.0, 1.0, NONE, 3), ("b", 0.2, 0.5, 0, 3)])
    again = SpanLog.from_json(log.to_json())
    assert list(again) == list(log)
