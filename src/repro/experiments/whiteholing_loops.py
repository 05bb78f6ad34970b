"""Extension — quantifying the whiteholing loop risk (Sections 6 & 7).

The paper rejects Level-3/4 aggregation because assigning nexthops to
non-routable space "potentially caus[es] routing loops", and closes by
asking "whether loops could be eliminated in such an approach". This
experiment makes the risk concrete on the textbook topology: two border
routers with interleaved address blocks, slightly divergent views, and a
stub default route via the peer. Every aggregation scheme is applied to
both FIBs and a loop census classifies each forwarding region.

Expected shape: SMALTA (ORTC), L1 and L2 change *nothing* (they are
semantically exact); L3 and L4 convert drops into deliveries *and* into
forwarding loops, while compressing hardest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import format_table
from repro.baselines import level1, level2, level3, level4, whiteholed_address_count
from repro.core.ortc import ortc
from repro.experiments.common import make_rng
from repro.netsim import (
    Outcome,
    aggregate_network,
    build_two_border_scenario,
    loop_census,
)
from repro.netsim.forwarding import probe_addresses
from repro.workloads.scale import scaled

SCHEMES = (
    ("SMALTA (ORTC)", ortc),
    ("Level-1", level1),
    ("Level-2", level2),
    ("Level-3 (whitehole)", level3),
    ("Level-4 (whitehole)", level4),
)


@dataclass(frozen=True)
class LoopRow:
    scheme: str
    fib_entries: int
    delivered: int
    dropped: int
    loops: int
    whiteholed_addresses: int


@dataclass(frozen=True)
class LoopResult:
    exact_entries: int
    exact_delivered: int
    exact_dropped: int
    rows: tuple[LoopRow, ...]


def run(seed: int | None = None, prefix_count: int | None = None) -> LoopResult:
    rng = make_rng(seed)
    if prefix_count is None:
        prefix_count = scaled(8_000, minimum=200)
    network = build_two_border_scenario(rng, prefix_count=prefix_count)
    rows: list[LoopRow] = []
    exact_census = loop_census(network)
    for name, scheme in SCHEMES:
        aggregated = aggregate_network(network, scheme)
        probes = probe_addresses(network, aggregated)
        census = loop_census(aggregated, addresses=probes)
        whiteholed = sum(
            whiteholed_address_count(
                network.router(router).table,
                aggregated.router(router).table,
                network.width,
            )
            for router in network.names()
        )
        rows.append(
            LoopRow(
                scheme=name,
                fib_entries=sum(
                    len(aggregated.router(r).table) for r in aggregated.names()
                ),
                delivered=census[Outcome.DELIVERED],
                dropped=census[Outcome.DROPPED],
                loops=census[Outcome.LOOP],
                whiteholed_addresses=whiteholed,
            )
        )
    return LoopResult(
        exact_entries=sum(len(network.router(r).table) for r in network.names()),
        exact_delivered=exact_census[Outcome.DELIVERED],
        exact_dropped=exact_census[Outcome.DROPPED],
        rows=tuple(rows),
    )


def format_result(result: LoopResult) -> str:
    header = (
        "Extension: whiteholing loop census (two border routers, stub "
        "default via peer)\n"
        f"exact FIBs: {result.exact_entries:,} entries, "
        f"{result.exact_delivered:,} regions delivered, "
        f"{result.exact_dropped:,} dropped, 0 loops\n"
        "(paper Sections 6/7: L3/L4 compress better but 'risk forming "
        "routing loops'; SMALTA never does)"
    )
    table = format_table(
        ["scheme", "FIB entries", "delivered", "dropped", "LOOPS", "whiteholed addrs"],
        [
            (
                row.scheme,
                row.fib_entries,
                row.delivered,
                row.dropped,
                row.loops,
                row.whiteholed_addresses,
            )
            for row in result.rows
        ],
    )
    return f"{header}\n{table}"


if __name__ == "__main__":
    print(format_result(run()))
