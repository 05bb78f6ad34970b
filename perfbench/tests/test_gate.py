"""The correctness gate passes a correct run and fails one whose kernel
holds a single wrong entry."""

import random

from perfbench.inproc import check_pipeline
from perfbench.inputs import replay
from repro.core.downloads import FibDownload
from repro.net.nexthop import NexthopRegistry
from repro.router.pipeline import RouterPipeline
from repro.workloads import generate_table, generate_update_trace


def pipeline_after_trace():
    rng = random.Random(11)
    nexthops = NexthopRegistry().create_many(4)
    table = generate_table(400, nexthops, rng)
    trace = list(generate_update_trace(table, 300, nexthops, rng))
    pipeline = RouterPipeline(backend="single")
    pipeline.load_table(table)
    pipeline.end_of_rib()
    for update in trace:
        pipeline.apply_update(update)
    return pipeline, replay(table, trace), nexthops


def test_a_correct_run_passes():
    pipeline, expected, _ = pipeline_after_trace()
    assert check_pipeline(pipeline, expected) == []


def test_one_wrong_kernel_entry_fails_the_run():
    pipeline, expected, nexthops = pipeline_after_trace()
    fib = pipeline.zebra.manager.fib_table()
    prefix, nexthop = sorted(fib.items())[len(fib) // 2]
    wrong = next(nh for nh in nexthops if nh != nexthop)
    pipeline.zebra.kernel.apply(FibDownload.insert(prefix, wrong))
    failures = check_pipeline(pipeline, expected)
    assert failures == ["kernel table differs from the FIB in 1 entries"]


def test_an_ot_that_drifted_from_the_trace_fails_the_run():
    pipeline, expected, _ = pipeline_after_trace()
    dropped = next(iter(expected))
    del expected[dropped]
    assert check_pipeline(pipeline, expected) == [
        "OT differs from the replayed trace in 1 entries"
    ]
