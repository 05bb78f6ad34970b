"""Micro-benchmarks of the core operations (statistical rounds).

The entry-stream ORTC (the paper's Section 4.3 snapshot cost: 200 ms – 1 s
in C), audited incorporation, and the substrate operations (Tree Bitmap
build/lookup, the invariant audit, the TaCo equivalence check) that the
evaluation machinery relies on. The snapshot and the per-update path
themselves are measured end to end by perfbench's ``snapshot_cycle`` and
``churn_seq`` workloads.
"""

from __future__ import annotations

import itertools
import random

from repro.core.equivalence import semantically_equivalent
from repro.core.manager import SmaltaManager
from repro.core.ortc import ortc
from repro.core.smalta import SmaltaState
from repro.fib.treebitmap import TreeBitmap
from repro.verify import AuditConfig, audit_state


def make_state(table) -> SmaltaState:
    state = SmaltaState(32)
    for prefix, nexthop in table.items():
        state.load(prefix, nexthop)
    state.snapshot()
    return state


def test_bench_ortc_snapshot(benchmark, bench_table):
    table, _ = bench_table
    result = benchmark(lambda: ortc(table.items(), 32))
    assert 0 < len(result) < len(table)


def test_bench_audited_updates(benchmark, bench_table, bench_trace):
    """Incorporation throughput with the inline auditor sampling every
    1000th update — the overhead of running self-checking in production
    (docs/VERIFICATION.md)."""
    table, _ = bench_table
    manager = SmaltaManager(width=32, audit=AuditConfig.every(1000))
    for prefix, nexthop in table.items():
        manager.state.load(prefix, nexthop)
    manager.loading = False
    manager.state.snapshot()
    cycle = itertools.cycle(bench_trace)
    benchmark(lambda: manager.apply(next(cycle)))
    assert manager.audits_run > 0


def test_bench_invariant_audit(benchmark, bench_table):
    """One full audit_state pass (structure + pi + reverse index +
    coverage + semantic equivalence) over a realistic table."""
    table, _ = bench_table
    state = make_state(table)
    violations = benchmark(lambda: audit_state(state))
    assert violations == []


def test_bench_tbm_build(benchmark, bench_table):
    table, _ = bench_table
    fib = benchmark(lambda: TreeBitmap.from_table(table, 32, 12, 4))
    assert len(fib) == len(table)


def test_bench_tbm_lookup(benchmark, bench_table):
    table, _ = bench_table
    fib = TreeBitmap.from_table(table, 32, 12, 4)
    rng = random.Random(7)
    addresses = [rng.getrandbits(32) for _ in range(1024)]
    cycle = itertools.cycle(addresses)
    benchmark(lambda: fib.lookup(next(cycle)))


def test_bench_equivalence_check(benchmark, bench_table):
    table, _ = bench_table
    aggregated = ortc(table.items(), 32)
    assert benchmark(lambda: semantically_equivalent(table, aggregated, 32))
