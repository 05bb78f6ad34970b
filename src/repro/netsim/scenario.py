"""Scenario builders: the two-border-router whiteholing loop setup.

The classic construction behind the paper's loop warning: two border
routers peer with each other; each reaches a different part of the
address space through its own upstream. Between their announced blocks
lies unrouted space. When each router's FIB is aggregated with a
whiteholing scheme, each router's entries absorb the shared hole *toward
the other router* — and packets addressed into the hole ping-pong
between the two until TTL death.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable

from repro.net.nexthop import Nexthop, NexthopRegistry
from repro.net.prefix import Prefix
from repro.netsim.network import EGRESS, Network
from repro.workloads.synthetic_table import TableProfile, generate_table


def build_two_border_scenario(
    rng: random.Random,
    prefix_count: int = 800,
    width: int = 32,
    view_loss: float = 0.05,
    peer_default: bool = True,
) -> Network:
    """R1 ⇄ R2 with *interleaved* block ownership and imperfect views.

    One global table whose announcements alternate (in address-order
    runs) between two owners. Each router sends its own blocks to EGRESS
    and the peer's blocks across the link, with unrouted holes woven
    between blocks of both owners.

    ``view_loss`` makes each router independently miss a fraction of the
    *peer's* announcements (convergence transients, filtering) — with
    identical views a deterministic aggregator absorbs every hole
    consistently on both routers and no loop can form; it is precisely
    the routers *disagreeing* about a hole's surroundings that lets
    whiteholing absorb it toward R2 in R1's FIB and toward R1 in R2's — a
    forwarding loop. Exact (non-whiteholing) FIBs turn the same
    disagreement into a harmless drop.

    ``peer_default`` is the textbook loop precondition (Scudder's GROW
    objection that the paper cites): R2 is a stub that carries a default
    route via R1 (its transit). Exact FIBs are still safe — R1 drops
    unrouted packets that R2 defaults to it. But once R1's FIB is
    *whiteholed*, a hole absorbed toward R2 meets R2's default pointing
    straight back: a two-hop forwarding loop.
    """
    registry = NexthopRegistry()
    to_r2 = registry.create("r1->r2")
    to_r1 = registry.create("r2->r1")
    owner_1 = registry.create("owned-by-R1")
    owner_2 = registry.create("owned-by-R2")

    network = Network(width)
    r1 = network.add_router("R1")
    r2 = network.add_router("R2")
    network.link("R1", "R2", to_r2, to_r1)

    profile = TableProfile(
        width=width,
        allocated_fraction=0.45,
        allocated_runs=6,
        mean_nexthop_run=3.0,  # short ownership runs → fine interleaving
        nexthop_noise=0.0,
    )
    table = generate_table(prefix_count, [owner_1, owner_2], rng, profile=profile)

    for prefix, owner in table.items():
        if owner == owner_1:
            r1.install(prefix, EGRESS)
            if rng.random() >= view_loss:
                r2.install(prefix, to_r1)
        else:
            r2.install(prefix, EGRESS)
            if rng.random() >= view_loss:
                r1.install(prefix, to_r2)
    if peer_default:
        r2.install(Prefix.root(width), to_r1)
    return network


def aggregate_network(
    network: Network,
    scheme: Callable[[Iterable[tuple[Prefix, Nexthop]], int], dict[Prefix, Nexthop]],
) -> Network:
    """A copy of the network with every router's FIB aggregated by
    ``scheme`` (any of ortc/level1/level2/level3/level4)."""
    aggregated = Network(network.width)
    for name in network.names():
        aggregated.add_router(name)
    for a, b in network.graph.edges:
        # Re-declare adjacency with the original nexthop objects.
        router_a, router_b = network.router(a), network.router(b)
        nexthop_ab = next(
            (
                nh
                for nh in set(router_a.table.values())
                if router_a.neighbor_for(nh) == b
            ),
            None,
        )
        nexthop_ba = next(
            (
                nh
                for nh in set(router_b.table.values())
                if router_b.neighbor_for(nh) == a
            ),
            None,
        )
        aggregated.graph.add_edge(a, b)
        if nexthop_ab is not None:
            aggregated.router(a).connect(nexthop_ab, b)
        if nexthop_ba is not None:
            aggregated.router(b).connect(nexthop_ba, a)
    for name in network.names():
        table = network.router(name).table
        aggregated.router(name).install_table(
            scheme(table.items(), network.width)
        )
    return aggregated
