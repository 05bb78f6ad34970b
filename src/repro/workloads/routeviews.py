"""RouteViews analogues: multi-peer feeds, best-path, and IGP mapping.

**Substitution note (see DESIGN.md):** the paper mimics "a router with a
number of eBGP peers, one per routeviews feed", applies a simple
best-path policy, and maps peers onto k IGP nexthops round-robin
(Section 4.1.2). We synthesize the same construction: a base table (the
DFZ), per-peer views that each cover most of it, a deterministic
best-path choice per prefix, and the round-robin peer→IGP mapping that
Figure 6 sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from repro.net.nexthop import Nexthop, NexthopRegistry, RoundRobinIgpMapper
from repro.net.prefix import Prefix
from repro.net.update import UpdateTrace
from repro.workloads.scale import scaled
from repro.workloads.synthetic_table import generate_table
from repro.workloads.synthetic_updates import generate_update_trace

#: December-15 RIB sizes per year (paper: "first RIB data file on
#: December 15 for each year from 2001 to 2010"). 2006 matches the
#: 220,821 prefixes reported under Figure 6; other years follow DFZ
#: growth.
ROUTEVIEWS_TABLE_SIZES: dict[int, int] = {
    2001: 104_000,
    2002: 117_000,
    2003: 130_000,
    2004: 150_000,
    2005: 176_000,
    2006: 220_821,
    2007: 244_000,
    2008: 275_000,
    2009: 305_000,
    2010: 340_000,
}

#: Number of RouteViews feeds in 2006 (paper: "48, the total number of
#: BGP nexthops for the routeviews collection in 2006").
PEER_COUNT_2006 = 48


@dataclass
class DumpStats:
    """What :func:`load_routeviews_dump` saw while parsing one file."""

    #: Total lines read, comments and blanks included.
    lines: int = 0
    #: Routes installed in the table (first line per prefix wins).
    routes: int = 0
    #: Later routes for an already-seen prefix (RIB dumps carry one line
    #: per peer; the best path is printed first).
    duplicates: int = 0
    #: Malformed lines tolerated by ``strict=False``.
    skipped: int = 0
    #: ``(line_number, reason)`` for every skipped line, in file order.
    skipped_lines: list[tuple[int, str]] = field(default_factory=list)


def _parse_dump_line(line: str) -> tuple[str, str]:
    """``(prefix_text, nexthop_name)`` from one dump line.

    Two shapes are accepted:

    - ``bgpdump -m`` pipe format (real RouteViews RIBs)::

        TABLE_DUMP2|1142294400|B|12.0.1.63|7018|10.0.0.0/8|7018 3356|IGP|12.123.1.236|…

      — the prefix is field 5, the BGP nexthop field 8;
    - plain whitespace pairs (``10.0.0.0/8 peer3``), the repo's own
      table shorthand.

    Raises :class:`ValueError` with a reason (no line number — the
    caller owns file context) for anything else, *including* truncated
    pipe lines, which otherwise surface as index errors mid-parse.
    """
    if "|" in line:
        parts = line.split("|")
        if parts[0] not in ("TABLE_DUMP", "TABLE_DUMP2"):
            raise ValueError(f"unknown MRT record type {parts[0]!r}")
        if len(parts) < 9:
            raise ValueError(
                f"truncated MRT line: {len(parts)} fields, need at least 9"
            )
        if parts[2] != "B":
            raise ValueError(f"not a RIB entry (subtype {parts[2]!r})")
        prefix_text, nexthop_name = parts[5], parts[8]
    else:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(
                f"expected 'prefix nexthop', got {len(parts)} fields"
            )
        prefix_text, nexthop_name = parts
    if not nexthop_name:
        raise ValueError("empty nexthop field")
    return prefix_text, nexthop_name


def load_routeviews_dump(
    path: Union[str, Path],
    registry: NexthopRegistry | None = None,
    *,
    strict: bool = True,
) -> tuple[dict[Prefix, Nexthop], NexthopRegistry, DumpStats]:
    """Parse a RouteViews table dump into a best-path table.

    One line per (peer, prefix) route; the first route seen for a prefix
    wins (RouteViews RIB walkers print the best path first), later ones
    count as :attr:`DumpStats.duplicates`. Malformed or truncated lines
    raise one :class:`ValueError` naming the file, line number, and
    offending text; with ``strict=False`` they are skipped and counted
    in :attr:`DumpStats.skipped` / :attr:`DumpStats.skipped_lines`
    instead. Nexthops are interned through ``registry`` (created fresh
    when not given), so the table is self-contained like
    :func:`~repro.workloads.trace_io.load_table`'s.
    """
    registry = registry if registry is not None else NexthopRegistry()
    table: dict[Prefix, Nexthop] = {}
    stats = DumpStats()
    with open(path, encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, 1):
            stats.lines += 1
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                prefix_text, nexthop_name = _parse_dump_line(line)
                prefix = Prefix.from_string(prefix_text)
            except ValueError as exc:
                if strict:
                    raise ValueError(
                        f"{path}:{line_number}: bad routeviews line "
                        f"{line!r}: {exc}"
                    ) from None
                stats.skipped += 1
                stats.skipped_lines.append((line_number, str(exc)))
                continue
            if prefix in table:
                stats.duplicates += 1
                continue
            try:
                nexthop = registry.by_name(nexthop_name)
            except KeyError:
                nexthop = registry.create(nexthop_name)
            table[prefix] = nexthop
            stats.routes += 1
    return table, registry, stats


@dataclass
class RouteViewsScenario:
    """A synthesized RouteViews router: table keyed by *peer* (BGP
    nexthop), plus machinery to re-key it by IGP nexthop."""

    year: int
    peers: list[Nexthop]
    table_by_peer: dict[Prefix, Nexthop]
    registry: NexthopRegistry
    trace_by_peer: UpdateTrace = field(default_factory=UpdateTrace)

    def with_igp_nexthops(
        self, igp_count: int
    ) -> tuple[dict[Prefix, Nexthop], list[Nexthop]]:
        """The FIB table after mapping peers round-robin onto ``igp_count``
        IGP nexthops — the Figure 6 sweep variable."""
        igp = [
            Nexthop(10_000 + i, f"igp{self.year}-{igp_count}-{i}")
            for i in range(igp_count)
        ]
        mapper = RoundRobinIgpMapper(igp)
        # Deterministic order: peers are assigned in key order.
        for peer in self.peers:
            mapper.map(peer)
        table = {
            prefix: mapper.map(peer) for prefix, peer in self.table_by_peer.items()
        }
        return table, igp

    def igp_trace(self, igp_count: int) -> UpdateTrace:
        """The update trace with nexthops mapped like the table's."""
        igp = [
            Nexthop(10_000 + i, f"igp{self.year}-{igp_count}-{i}")
            for i in range(igp_count)
        ]
        mapper = RoundRobinIgpMapper(igp)
        for peer in self.peers:
            mapper.map(peer)
        from repro.net.update import RouteUpdate, UpdateKind

        mapped = UpdateTrace(name=f"{self.trace_by_peer.name}-igp{igp_count}")
        for update in self.trace_by_peer:
            if update.kind is UpdateKind.ANNOUNCE:
                assert update.nexthop is not None
                mapped.append(
                    RouteUpdate.announce(
                        update.prefix, mapper.map(update.nexthop), update.timestamp
                    )
                )
            else:
                mapped.append(update)
        return mapped


def build_routeviews_scenario(
    year: int,
    rng: random.Random,
    peer_count: int = PEER_COUNT_2006,
    update_count: int | None = None,
    duration_s: float = 24 * 3600.0,
) -> RouteViewsScenario:
    """Synthesize the RouteViews router for ``year`` (scaled).

    The best-path process is modeled directly: each prefix's winning peer
    is the generator's skew-and-locality assignment (real best paths are
    also spatially clustered because peers win whole allocation blocks).
    """
    if year not in ROUTEVIEWS_TABLE_SIZES:
        raise ValueError(
            f"no table size for {year}; choose one of "
            f"{sorted(ROUTEVIEWS_TABLE_SIZES)}"
        )
    registry = NexthopRegistry()
    peers = registry.create_many(peer_count, prefix=f"peer{year}-")
    size = scaled(ROUTEVIEWS_TABLE_SIZES[year], minimum=100)
    table = generate_table(size, peers, rng, target_effective=None)
    scenario = RouteViewsScenario(
        year=year, peers=peers, table_by_peer=table, registry=registry
    )
    if update_count is not None:
        scenario.trace_by_peer = generate_update_trace(
            table,
            scaled(update_count, minimum=50),
            peers,
            rng,
            duration_s=duration_s,
            name=f"routeviews-{year}",
        )
    return scenario
