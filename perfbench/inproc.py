"""churn_seq and snapshot_cycle: the router pipeline in this process.

Both build a :class:`~repro.router.pipeline.RouterPipeline` on the
``single`` backend (named explicitly, so ``SMALTA_BACKEND`` cannot
change it), time a phase of fixed work, and check the outputs before
any number is reported. Garbage is collected at every phase boundary,
outside the timed region; collection is never disabled, so a pause the
program triggers inside a timed call is charged to it.
"""

from __future__ import annotations

import gc
import resource
import statistics
from array import array
from dataclasses import dataclass, field
from typing import Optional

from repro.core.equivalence import semantically_equivalent
from repro.core.ortc import ortc
from repro.obs.export import flatten_samples
from repro.net.nexthop import Nexthop
from repro.net.prefix import Prefix
from repro.router.pipeline import RouterPipeline

from perfbench import ledger
from perfbench.inputs import Inputs, replay
from perfbench.outcome import Outcome, metric
from perfbench.spans import Tracer, clock
from perfbench.stats import percentile, tail_or_max

BACKEND = "single"
WIDTH = 32
SETUP_REPEATS = 5


def rss_now_kb() -> int:
    """Resident set size of this process right now, in KiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("VmRSS missing from /proc/self/status")


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def set_up(inputs: Inputs) -> tuple[RouterPipeline, float, float]:
    """Cold start until the kernel FIB is programmed: build the pipeline,
    load the OT, run the End-of-RIB snapshot and download the full AT.
    Returns the pipeline, the set-up time and the End-of-RIB time."""
    started = clock()
    pipeline = RouterPipeline(width=WIDTH, backend=BACKEND)
    pipeline.load_table(inputs.table)
    eor_started = clock()
    pipeline.end_of_rib()
    done = clock()
    return pipeline, done - started, done - eor_started


def set_up_repeatedly(
    inputs: Inputs, repeats: int
) -> tuple[RouterPipeline, list[float], list[float]]:
    """``repeats`` cold starts, each after a collection; the last pipeline
    is kept for the timed phase. Returns it with the set-up and End-of-RIB
    times of every start."""
    pipeline: Optional[RouterPipeline] = None
    setup_s: list[float] = []
    end_of_rib_s: list[float] = []
    for _ in range(repeats):
        if pipeline is not None:
            pipeline.close()
            pipeline = None
        gc.collect()
        pipeline, seconds, eor = set_up(inputs)
        setup_s.append(seconds)
        end_of_rib_s.append(eor)
    assert pipeline is not None
    return pipeline, setup_s, end_of_rib_s


@dataclass
class Phase:
    """What one timed phase measured."""

    updates: int
    timed_s: float
    latencies_s: array
    snapshots_s: list[float] = field(default_factory=list)
    #: snapshot_cycle: AT sizes just before and just after each snapshot.
    at_sizes: list[tuple[int, int]] = field(default_factory=list)
    downloads: int = 0
    esrch: int = 0
    samples_before: dict[str, float] = field(default_factory=dict)
    samples_after: dict[str, float] = field(default_factory=dict)


def run_phase(
    inputs: Inputs, pipeline: RouterPipeline, tracer: Optional[Tracer] = None
) -> Phase:
    """The timed phase of ``inputs.workload`` on a set-up pipeline."""
    log = pipeline.download_log
    kernel = pipeline.zebra.kernel
    downloads_before = log.total
    esrch_before = kernel.failed_uninstalls
    registry = pipeline.obs.registry
    samples_before = flatten_samples(registry)
    if inputs.workload == "churn_seq":
        phase = _churn(inputs, pipeline, tracer)
    else:
        phase = _cycle(inputs, pipeline, tracer)
    phase.samples_before = samples_before
    phase.samples_after = flatten_samples(registry)
    phase.downloads = log.total - downloads_before
    phase.esrch = kernel.failed_uninstalls - esrch_before
    return phase


def _churn(inputs: Inputs, pipeline: RouterPipeline, tracer: Optional[Tracer]) -> Phase:
    """Replay the IGR trace one update at a time, no snapshot."""
    latencies = array("d", bytes(8 * len(inputs.trace)))
    gc.collect()
    if tracer is not None:
        tracer.install()
    apply = pipeline.apply_update
    started = clock()
    for index, update in enumerate(inputs.trace):
        if tracer is not None:
            tracer.rid.set(index)
        before = clock()
        apply(update)
        latencies[index] = clock() - before
    timed = clock() - started
    if tracer is not None:
        tracer.remove()
    return Phase(len(inputs.trace), timed, latencies)


def _cycle(inputs: Inputs, pipeline: RouterPipeline, tracer: Optional[Tracer]) -> Phase:
    """Rounds of churn bursts, each closed by ``Zebra.snapshot_now()``.
    Only the bursts and the snapshot of each round are timed."""
    manager = pipeline.zebra.manager
    phase = Phase(inputs.update_count, 0.0, array("d", bytes(8 * len(inputs.bursts))))
    index = 0
    for round_index in range(inputs.rounds):
        gc.collect()
        if tracer is not None:
            tracer.install()
            tracer.rid.set(round_index)
        apply_burst = pipeline.apply_burst
        snapshot = pipeline.zebra.snapshot_now
        started = clock()
        for burst in inputs.round_bursts(round_index):
            before = clock()
            apply_burst(burst)
            phase.latencies_s[index] = clock() - before
            index += 1
        bursts_done = clock()
        at_before = manager.at_size
        snapshot_started = clock()
        snapshot()
        done = clock()
        if tracer is not None:
            tracer.remove()
        phase.timed_s += (bursts_done - started) + (done - snapshot_started)
        phase.snapshots_s.append(done - snapshot_started)
        phase.at_sizes.append((at_before, manager.at_size))
    return phase


def check_snapshots(inputs: Inputs, phase: Phase) -> list[str]:
    """snapshot_cycle: after each snapshot the AT holds exactly as many
    entries as ``ortc()`` of that round's expected OT."""
    failures = []
    optimal_sizes = inputs.optimal_sizes()
    for index, ((_, after), optimal) in enumerate(zip(phase.at_sizes, optimal_sizes)):
        if after != optimal:
            failures.append(
                f"round {index}: AT holds {after} entries after the snapshot, "
                f"ORTC of the OT holds {optimal}"
            )
    return failures


def check_pipeline(
    pipeline: RouterPipeline, expected_ot: dict[Prefix, Nexthop]
) -> list[str]:
    """The end-of-run correctness gate; returns one line per failed check."""
    manager = pipeline.zebra.manager
    failures: list[str] = []
    kernel = pipeline.zebra.kernel.table()
    fib = manager.fib_table()
    if kernel != fib:
        wrong = _differing(kernel, fib)
        failures.append(f"kernel table differs from the FIB in {wrong} entries")
    ot = manager.state.ot_table()
    if not semantically_equivalent(ot, fib, WIDTH):
        failures.append("FIB does not forward like the OT")
    if ot != expected_ot:
        wrong = _differing(ot, expected_ot)
        failures.append(f"OT differs from the replayed trace in {wrong} entries")
    return failures


GATE_CHECKS = 3


def _differing(a: dict[Prefix, Nexthop], b: dict[Prefix, Nexthop]) -> int:
    return sum(1 for prefix in a.keys() | b.keys() if a.get(prefix) != b.get(prefix))


def gate(
    inputs: Inputs, pipeline: RouterPipeline, phase: Phase
) -> tuple[list[str], int, int]:
    """Every check of a run: one line per failure, the failed operations
    (each ESRCH delete counts) and the checks run."""
    problems = check_pipeline(pipeline, replay(inputs.table, inputs.updates))
    checks = GATE_CHECKS
    if inputs.workload == "snapshot_cycle":
        problems += check_snapshots(inputs, phase)
        checks += inputs.rounds
    failed = len(problems) + phase.esrch
    if phase.esrch:
        problems.append(f"{phase.esrch} deletes of missing kernel routes (ESRCH)")
    return problems, failed, checks


def run_untraced(inputs: Inputs, baseline_kb: int) -> Outcome:
    """Set up ``SETUP_REPEATS`` times, run the timed phase, gate, report."""
    pipeline, setup_s, end_of_rib_s = set_up_repeatedly(inputs, SETUP_REPEATS)
    gc.collect()
    phase = run_phase(inputs, pipeline)
    peak_kb = peak_rss_kb()
    problems, failed, checks = gate(inputs, pipeline, phase)
    manager = pipeline.zebra.manager
    if inputs.workload == "churn_seq":
        optimal = len(ortc(manager.state.ot_table().items(), WIDTH))
        at_drift = manager.at_size / optimal - 1.0
        snapshots = end_of_rib_s
        snapshot_source = f"End-of-RIB snapshots of {len(snapshots)} set-ups"
    else:
        at_drift = statistics.fmean(
            before / after - 1.0 for before, after in phase.at_sizes
        )
        snapshots = phase.snapshots_s
        snapshot_source = f"{len(snapshots)} timed snapshots"
    latencies = list(phase.latencies_s)
    tail_label, tail_value = tail_or_max(snapshots)
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "updates_per_s": metric(phase.updates / phase.timed_s, "updates/s"),
        "latency_p50_us": metric(statistics.median(latencies) * 1e6, "us"),
        "latency_p99_us": metric(percentile(latencies, 0.99) * 1e6, "us"),
        "snapshot_p50_s": metric(statistics.median(snapshots), "s"),
        "snapshot_tail_s": metric(tail_value, "s"),
        "downloads_per_update": metric(phase.downloads / phase.updates, "ratio"),
        "fib_ratio": metric(manager.fib_size / manager.ot_size, "ratio"),
        "at_drift": metric(at_drift, "ratio"),
        "rss_mb": metric((peak_kb - baseline_kb) / 1024, "MB"),
    }
    notes = {
        "latency_samples": len(latencies),
        "latency_unit": (
            "apply_update" if inputs.workload == "churn_seq" else "apply_burst"
        ),
        "snapshot_samples": snapshot_source,
        "snapshot_tail": tail_label,
        "timed_s": phase.timed_s,
    }
    pipeline.close()
    return Outcome(metrics, phase.updates + checks, failed, problems, notes)


def run_traced(inputs: Inputs) -> Outcome:
    """An untraced phase for the overhead base, then the same phase traced
    on a fresh pipeline; reports the per-layer ledger."""
    base_pipeline = set_up(inputs)[0]
    gc.collect()
    base = run_phase(inputs, base_pipeline)
    base_pipeline.close()
    del base_pipeline
    gc.collect()

    pipeline = set_up(inputs)[0]
    gc.collect()
    tracer = Tracer()
    phase = run_phase(inputs, pipeline, tracer)
    problems, failed, checks = gate(inputs, pipeline, phase)
    pipeline.close()

    spans = tracer.log
    units = phase.updates if inputs.workload == "churn_seq" else inputs.rounds
    values = ledger.time_metrics(spans, units)
    values.update(
        ledger.count_metrics(phase.samples_before, phase.samples_after, phase.updates)
    )
    values.update(ledger.gc_metrics(spans))
    covered = sum(ledger.self_time_by_name(spans).values())
    values["gc.gen2_collections"] = float(len(tracer.gen2_times))
    values["trace.coverage"] = covered / phase.timed_s
    values["trace.overhead"] = phase.timed_s / base.timed_s
    broken = ledger.trace_problems(spans, values)
    problems += broken
    failed += len(broken)
    notes = {
        "unit_of_work": "update" if inputs.workload == "churn_seq" else "snapshot",
        "units": units,
        "spans": len(spans),
        "traced_s": phase.timed_s,
        "untraced_s": base.timed_s,
    }
    metrics = ledger.per_layer_metrics(values)
    return Outcome(metrics, phase.updates + checks, failed, problems, notes)
