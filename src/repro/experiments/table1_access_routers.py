"""Table 1 — five access routers: SMALTA vs L1 vs L2 after snapshot.

Paper setup: FIB snapshots of five provider ARs with wildly different
nexthop structure; the table reports E(·), #NH, #(OT), T(OT), and for
each scheme the entry count and lookup cost. Expected shape: aggregation
tracks the *effective* nexthop count, not the raw count — AR-1
(E = 1.061) shrinks to ~13% of OT while AR-5 (E = 3.164) only reaches
~55%; SMALTA beats L2 beats L1 everywhere, and lookup costs follow.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import FibMetrics, fib_metrics, table_effective_nexthops
from repro.analysis.reporting import format_table
from repro.baselines import level1, level2
from repro.core.ortc import ortc
from repro.experiments.common import make_rng
from repro.workloads.provider import (
    AR_PROFILES,
    AccessRouterProfile,
    build_access_router_table,
)


@dataclass(frozen=True)
class Table1Row:
    name: str
    nexthop_count: int
    effective: float  # measured E(·) of the synthesized table
    ot: FibMetrics
    at: FibMetrics
    l1: FibMetrics
    l2: FibMetrics


@dataclass(frozen=True)
class Table1Result:
    rows: tuple[Table1Row, ...]


def run(
    seed: int | None = None,
    profiles: tuple[AccessRouterProfile, ...] = AR_PROFILES,
) -> Table1Result:
    rng = make_rng(seed)
    rows: list[Table1Row] = []
    for profile in profiles:
        table, _ = build_access_router_table(profile, rng)
        width = 32
        rows.append(
            Table1Row(
                name=profile.name,
                nexthop_count=profile.nexthop_count,
                effective=table_effective_nexthops(table),
                ot=fib_metrics(table, width),
                at=fib_metrics(ortc(table.items(), width), width),
                l1=fib_metrics(level1(table.items(), width), width),
                l2=fib_metrics(level2(table.items(), width), width),
            )
        )
    return Table1Result(rows=tuple(rows))


def format_result(result: Table1Result) -> str:
    header = (
        "Table 1: provider access routers after snapshot "
        "(#: entries, T: avg lookup memory accesses)\n"
        "(paper: AR-1 #(AT)=13% of OT ... AR-5 #(AT)=55%; "
        "SMALTA < L2 < L1 < OT throughout)"
    )
    names = [row.name for row in result.rows]
    lines = [
        ["E(.)"] + [f"{row.effective:.3f}" for row in result.rows],
        ["#NH"] + [row.nexthop_count for row in result.rows],
        ["#(OT)"] + [row.ot.entries for row in result.rows],
        ["T(OT)"] + [f"{row.ot.avg_accesses:.2f}" for row in result.rows],
        ["#(AT)"] + [row.at.entries for row in result.rows],
        ["T(AT)"] + [f"{row.at.avg_accesses:.2f}" for row in result.rows],
        ["#(L1)"] + [row.l1.entries for row in result.rows],
        ["T(L1)"] + [f"{row.l1.avg_accesses:.2f}" for row in result.rows],
        ["#(L2)"] + [row.l2.entries for row in result.rows],
        ["T(L2)"] + [f"{row.l2.avg_accesses:.2f}" for row in result.rows],
    ]
    return f"{header}\n" + format_table([""] + names, lines)


if __name__ == "__main__":
    print(format_result(run()))
