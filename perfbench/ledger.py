"""The per-layer ledger: self times from spans, counts from registries.

Time metrics are self time per unit of work (per update on churn_seq
and daemon_bursts, per snapshot on snapshot_cycle). Count metrics are
deltas of the program's own registry series over the timed phase, read
outside it. Every name below is printed on every workload; a layer a
workload does not use reads zero there.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional, Sequence

from perfbench.spans import SpanLog, self_times

#: Span name → the unit its ``<name>.self_<unit>`` metric is printed in.
SELF_TIME_UNITS: dict[str, str] = {
    "pipeline": "us",
    "zebra": "us",
    "manager": "us",
    "smalta_insert": "us",
    "smalta_delete": "us",
    "smalta_batch": "us",
    "smalta_ortc": "ms",
    "ortc_bottom_up": "ms",
    "ortc_top_down": "ms",
    "diff_tables": "ms",
    "smalta_snapshot": "ms",
    "zebra_kernel_apply": "us",
    "kernel_apply": "us",
    "protocol_decode": "us",
    "daemon_request": "us",
    "gc_pause": "ms",
}
SCALE = {"us": 1e6, "ms": 1e3}
TENANT_LAYERS = ("smalta_batch",)
TENANTS = ("single", "packed")

#: (metric, unit, better) of every per-layer metric, in print order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((f"{name}.self_{unit}", unit, "lower") for name, unit in SELF_TIME_UNITS.items()),
    *(
        (f"tenant_{tenant}.{name}.self_us", "us", "lower")
        for tenant in TENANTS
        for name in TENANT_LAYERS
    ),
    ("manager.queued_updates", "count", "lower"),
    ("smalta.reclaims_per_update", "ratio", "lower"),
    ("smalta.label_changes_per_update", "ratio", "lower"),
    ("smalta.coalescing", "ratio", "higher"),
    ("snapshot.burst_ops", "count", "lower"),
    ("kernel.ops_per_update", "ratio", "lower"),
    ("packed.patches_per_update", "ratio", "lower"),
    ("tenant_queue_wait.p50_us", "us", "lower"),
    ("tenant_queue_wait.p99_us", "us", "lower"),
    ("tenant.queue_depth_max", "count", "lower"),
    ("gc.gen2_collections", "count", "lower"),
    ("gc_pause.max_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)

#: Coverage (the layers' summed self time over the traced wall time) must
#: land within this distance of 1; the rest is the benchmark's own loop.
COVERAGE_TOLERANCE = 0.1
#: A self time below minus this is a broken span tree, not float rounding.
ROUNDING_S = 1e-9


def per_layer_metrics(values: Mapping[str, float]) -> dict[str, tuple[float, str]]:
    """Every :data:`PER_LAYER` metric as ``(value, unit)``; a layer the
    workload does not use reads zero."""
    return {name: (float(values.get(name, 0.0)), unit) for name, unit, _ in PER_LAYER}


def trace_problems(log: SpanLog, values: Mapping[str, float]) -> list[str]:
    """Failure lines when the layers do not add up to the traced time, or
    when a span's children outlast it (a negative self time)."""
    problems = []
    coverage = values["trace.coverage"]
    if abs(coverage - 1.0) > COVERAGE_TOLERANCE:
        problems.append(
            f"trace coverage {coverage:.3f} is outside 1 ± {COVERAGE_TOLERANCE}"
        )
    negative = sum(1 for own in self_times(log) if own < -ROUNDING_S)
    if negative:
        problems.append(f"{negative} spans have a negative self time")
    return problems


def self_time_by_name(
    log: SpanLog, request: Optional[Callable[[int], bool]] = None
) -> dict[str, float]:
    """Summed self time per span name, optionally only of the spans whose
    request id ``request`` accepts."""
    totals: dict[str, float] = {}
    names, rids = log.names, log.rid
    for index, (code, own) in enumerate(zip(log.name, self_times(log))):
        if request is None or request(rids[index]):
            name = names[code]
            totals[name] = totals.get(name, 0.0) + own
    return totals


def time_metrics(
    log: SpanLog,
    units: int,
    prefix: str = "",
    names: Sequence[str] = (),
    request: Optional[Callable[[int], bool]] = None,
) -> dict[str, float]:
    """``<prefix><name>.self_<unit>`` per unit of work for each layer."""
    totals = self_time_by_name(log, request)
    out: dict[str, float] = {}
    for name in names or SELF_TIME_UNITS:
        unit = SELF_TIME_UNITS[name]
        out[f"{prefix}{name}.self_{unit}"] = totals.get(name, 0.0) / units * SCALE[unit]
    return out


def gc_metrics(log: SpanLog) -> dict[str, float]:
    pauses = [end - start for name, start, end, _, _ in log if name == "gc_pause"]
    return {"gc_pause.max_ms": max(pauses, default=0.0) * 1e3}


def delta(before: Mapping[str, float], after: Mapping[str, float], key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def count_metrics(
    before: Mapping[str, float], after: Mapping[str, float], updates: int
) -> dict[str, float]:
    """Registry-series deltas over the timed phase, per update where the
    name says so. ``before``/``after`` are flat Prometheus sample maps
    (several tenants' maps add up)."""

    def d(key: str) -> float:
        return delta(before, after, key)

    snapshots = d("smalta_snapshots_total")
    net_ops = d("smalta_batch_net_ops_total")
    kernel_ops = sum(
        d(f'kernel_fib_ops_total{{op="{op}"}}')
        for op in ("install", "uninstall", "failed_uninstall")
    )
    return {
        "manager.queued_updates": d("smalta_updates_queued_total"),
        "smalta.reclaims_per_update": d("smalta_reclaim_calls_total") / updates,
        "smalta.label_changes_per_update": d("smalta_at_label_changes_total") / updates,
        "smalta.coalescing": (
            d("smalta_batch_updates_total") / net_ops if net_ops else 0.0
        ),
        "snapshot.burst_ops": (
            d('smalta_fib_downloads_total{cause="snapshot"}') / snapshots
            if snapshots
            else 0.0
        ),
        "kernel.ops_per_update": kernel_ops / updates,
        "packed.patches_per_update": d("smalta_packed_patches_total") / updates,
    }


def add_samples(*maps: Mapping[str, float]) -> dict[str, float]:
    total: dict[str, float] = {}
    for samples in maps:
        for key, value in samples.items():
            total[key] = total.get(key, 0.0) + value
    return total

