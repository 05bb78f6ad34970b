"""Seeded inputs for the three workloads, generated before any program
object exists and excluded from every metric.

Every size is fixed here, and nothing below reads ``REPRO_SCALE``:
tables and traces come straight from the generators with explicit
counts, so the environment cannot change what is measured. The amount
of work in a timed phase follows from ``--seconds`` through fixed rates
(not through a measured speed), which keeps every count metric a
function of the seed and the run length alone.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro.core.ortc import ortc
from repro.net.nexthop import Nexthop, NexthopRegistry
from repro.net.prefix import Prefix
from repro.net.update import RouteUpdate, UpdateKind, iter_bursts
from repro.workloads import (
    IGR_PROFILE,
    TableProfile,
    generate_burst_trace,
    generate_table,
    generate_update_trace,
)

#: The IGR of Table 2 / Figures 8 and 10 at one tenth of the paper's
#: size (the repository's default scale), fixed.
IGR_TABLE_SIZE = round(IGR_PROFILE.table_size / 10)  # 41,803 prefixes
IGR_TRACE_SIZE = round(IGR_PROFILE.update_count / 10)  # 18,372 updates in 12 h
#: churn_seq's trace is a run of 3-hour periods of the IGR trace's rate,
#: each with its own unstable prefixes, this many updates per requested
#: second (about 1 s of replay on a 2-vCPU host).
CHURN_PERIOD_HOURS = 3.0
CHURN_PERIOD_SIZE = round(IGR_TRACE_SIZE * CHURN_PERIOD_HOURS / IGR_PROFILE.trace_hours)
CHURN_UPDATES_PER_SECOND = 20_000

#: The default-free-zone profile of BENCH_batch.json: most of the
#: first-octet space allocated, in many runs.
DFZ_PROFILE = TableProfile(allocated_fraction=0.85, allocated_runs=40)
DFZ_NEXTHOPS = 8

#: snapshot_cycle: a DFZ-profile table, then rounds of churn bursts, each
#: round closed by one snapshot (about 0.2 s per round); each run of
#: ``CYCLE_BURSTS_PER_PIECE`` bursts has its own set of unstable prefixes.
CYCLE_TABLE_SIZE = 10_000
CYCLE_ROUNDS_PER_SECOND = 4
CYCLE_BURSTS_PER_ROUND = 80
CYCLE_BURSTS_PER_PIECE = 20
CYCLE_BURST_SIZE = 50

#: daemon_bursts: FAQS-style flap bursts (each update one of the burst's
#: eighth as many prefixes) against a DFZ-profile table. Bursts carry 100
#: updates, half the batch bench's 200: each of the daemon's own full
#: collections delays both tenants' bursts in flight, and at 200 updates
#: that was about 1 % of all bursts, so p99 fell on either side of them
#: from run to run.
DAEMON_TABLE_SIZE = 10_000
DAEMON_BURST_SIZE = 100
DAEMON_BURSTS_PER_SECOND = 200
#: Bursts per set of unstable prefixes.
DAEMON_BURSTS_PER_CHUNK = 50
#: Table rows per set-up ``feed`` frame: about 30 KB, well under the
#: daemon's 64 KiB line limit (see README, "Known issue").
DAEMON_TABLE_FRAME = 400

#: Gap that separates generated bursts (see ``generate_burst_trace``).
BURST_GAP_S = 0.02


class InputRandom(random.Random):
    """``random.Random`` whose ``choices(population, weights)`` reuses the
    cumulative weights of a weights list it has seen before.

    The draws are identical to the plain method's. The trace generators
    call it with one Zipf weights list for every event, and summing that
    list again each time made generating an IGR period ten times slower.
    """

    def __init__(self, seed: str) -> None:
        super().__init__(seed)
        self._cumulative: dict[int, tuple[list[float], list[float]]] = {}

    def choices(  # type: ignore[override]
        self,
        population: Sequence[Any],
        weights: Optional[Sequence[float]] = None,
        *,
        cum_weights: Optional[Sequence[float]] = None,
        k: int = 1,
    ) -> list[Any]:
        if isinstance(weights, list) and cum_weights is None:
            cached = self._cumulative.get(id(weights))
            if cached is None or cached[0] is not weights:
                cached = (weights, list(itertools.accumulate(weights)))
                self._cumulative[id(weights)] = cached
            return super().choices(population, cum_weights=cached[1], k=k)
        return super().choices(population, weights, cum_weights=cum_weights, k=k)


@dataclass
class Inputs:
    """One workload's inputs: the table, then the timed phase's updates,
    one at a time (``trace``) or as bursts (``bursts``)."""

    workload: str
    seed: int
    table: dict[Prefix, Nexthop]
    trace: list[RouteUpdate] = field(default_factory=list)
    bursts: list[list[RouteUpdate]] = field(default_factory=list)
    #: snapshot_cycle: the index in ``bursts`` where each round ends.
    round_ends: list[int] = field(default_factory=list)

    @property
    def updates(self) -> Iterator[RouteUpdate]:
        """Every timed-phase update, in order."""
        yield from self.trace
        for burst in self.bursts:
            yield from burst

    @property
    def update_count(self) -> int:
        return len(self.trace) + sum(len(b) for b in self.bursts)

    @property
    def rounds(self) -> int:
        return len(self.round_ends)

    def round_bursts(self, index: int) -> list[list[RouteUpdate]]:
        """snapshot_cycle: the bursts of round ``index``."""
        start = self.round_ends[index - 1] if index else 0
        return self.bursts[start:self.round_ends[index]]

    def optimal_sizes(self) -> Iterator[int]:
        """snapshot_cycle: the ORTC-optimal AT size after each round."""
        expected = self.table
        for index in range(self.rounds):
            bursts = self.round_bursts(index)
            expected = replay(expected, (u for burst in bursts for u in burst))
            yield len(ortc(expected.items()))


def replay(
    table: dict[Prefix, Nexthop], updates: Iterable[RouteUpdate]
) -> dict[Prefix, Nexthop]:
    """The benchmark's own oracle: the OT as a plain dict replay."""
    expected = dict(table)
    for update in updates:
        if update.kind is UpdateKind.ANNOUNCE:
            assert update.nexthop is not None
            expected[update.prefix] = update.nexthop
        else:
            expected.pop(update.prefix, None)
    return expected


def settle(table: dict[Prefix, Nexthop], trace: list[RouteUpdate]) -> list[RouteUpdate]:
    """The updates that bring every prefix ``trace`` left changed back to
    ``table``: its unstable prefixes settle on their original routes.

    Without settling, each fresh set of unstable prefixes would leave some
    on randomly drawn alternate nexthops, and the table would lose the
    aggregatability a real one keeps.
    """
    live = replay(table, trace)
    at = trace[-1].timestamp if trace else 0.0
    restore = [
        RouteUpdate.announce(prefix, nexthop, at)
        for prefix, nexthop in sorted(table.items())
        if live.get(prefix) != nexthop
    ]
    created = sorted(prefix for prefix in live if prefix not in table)
    retire = [RouteUpdate.withdraw(prefix, at) for prefix in created]
    return restore + retire


def _burst_chunks(
    table: dict[Prefix, Nexthop],
    nexthops: list[Nexthop],
    rng: random.Random,
    chunks: int,
    per_chunk: int,
    size: int,
) -> list[list[list[RouteUpdate]]]:
    """``chunks`` burst traces against ``table``, back to back, each with
    its own unstable prefixes.

    One trace draws every burst from one small Zipf-weighted set of flappy
    prefixes, so a handful of prefixes would decide a run's counts; a
    fresh set per chunk averages them out across the run. The prefixes do
    not settle between chunks: settling would arrive as bursts of many
    distinct prefixes, far heavier than a flap burst, and those would
    decide the burst latency's tail.
    """
    out: list[list[list[RouteUpdate]]] = []
    for _ in range(chunks):
        trace = generate_burst_trace(table, per_chunk, size, nexthops, rng)
        chunk = list(iter_bursts(trace, max_gap_s=BURST_GAP_S))
        if len(chunk) != per_chunk:
            raise RuntimeError(f"got {len(chunk)} bursts, not {per_chunk}")
        out.append(chunk)
    return out


def _dfz_table(
    rng: random.Random, size: int
) -> tuple[dict[Prefix, Nexthop], list[Nexthop]]:
    nexthops = NexthopRegistry().create_many(DFZ_NEXTHOPS)
    return generate_table(size, nexthops, rng, profile=DFZ_PROFILE), nexthops


def make_inputs(workload: str, seed: int, seconds: float) -> Inputs:
    """The inputs of ``workload`` for ``seed``, sized for ``seconds``."""
    rng = InputRandom(f"{workload}/{seed}")
    if workload == "churn_seq":
        # Successive IGR periods, each with its own unstable prefixes
        # (a handful of Zipf-popular ones carry most of a period's
        # churn), each settling back on the original table at its end.
        nexthops = NexthopRegistry().create_many(
            IGR_PROFILE.nexthop_count, prefix="igr-nh"
        )
        table = generate_table(IGR_TABLE_SIZE, nexthops, rng, target_effective=None)
        periods = math.ceil(seconds * CHURN_UPDATES_PER_SECOND / CHURN_PERIOD_SIZE)
        trace: list[RouteUpdate] = []
        period: list[RouteUpdate] = []
        for _ in range(periods):
            trace += settle(table, period)
            period = list(
                generate_update_trace(
                    table,
                    CHURN_PERIOD_SIZE,
                    nexthops,
                    rng,
                    duration_s=CHURN_PERIOD_HOURS * 3600.0,
                    name=f"{IGR_PROFILE.name}-trace",
                )
            )
            trace += period
        return Inputs(workload, seed, table, trace=trace)
    if workload == "snapshot_cycle":
        table, nexthops = _dfz_table(rng, CYCLE_TABLE_SIZE)
        inputs = Inputs(workload, seed, table)
        # At least 25 rounds, so the snapshot tail rests on a percentile.
        for _ in range(max(25, round(seconds * CYCLE_ROUNDS_PER_SECOND))):
            pieces = _burst_chunks(
                table,
                nexthops,
                rng,
                CYCLE_BURSTS_PER_ROUND // CYCLE_BURSTS_PER_PIECE,
                CYCLE_BURSTS_PER_PIECE,
                CYCLE_BURST_SIZE,
            )
            for bursts in pieces:
                inputs.bursts += bursts
            inputs.round_ends.append(len(inputs.bursts))
        return inputs
    if workload == "daemon_bursts":
        table, nexthops = _dfz_table(rng, DAEMON_TABLE_SIZE)
        count = max(2000, round(seconds * DAEMON_BURSTS_PER_SECOND))
        chunks = _burst_chunks(
            table,
            nexthops,
            rng,
            count // DAEMON_BURSTS_PER_CHUNK,
            DAEMON_BURSTS_PER_CHUNK,
            DAEMON_BURST_SIZE,
        )
        bursts = [burst for chunk in chunks for burst in chunk]
        return Inputs(workload, seed, table, bursts=bursts)
    raise ValueError(f"unknown workload {workload!r}")


def digest(inputs: Inputs) -> str:
    """A short hash of every input the program receives."""
    sha = hashlib.sha256(f"{inputs.workload}/{inputs.round_ends}".encode())
    for prefix, nexthop in sorted(inputs.table.items()):
        sha.update(f"{prefix.value}/{prefix.length}>{nexthop.key};".encode())
    for update in inputs.updates:
        key: Optional[int] = update.nexthop.key if update.nexthop is not None else None
        prefix = update.prefix
        sha.update(f"{update.kind.value}{prefix.value}/{prefix.length}>{key};".encode())
    sha.update(repr([len(b) for b in inputs.bursts]).encode())
    return sha.hexdigest()[:16]
