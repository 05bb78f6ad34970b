"""Route updates and update traces.

The paper's Figure 1 interface: the route-resolution function emits a
stream of non-aggregated ``Insert(N, Q)`` / ``Delete(N)`` calls; SMALTA
consumes them. :class:`RouteUpdate` is one element of that stream;
:class:`UpdateTrace` is a replayable sequence with simple statistics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.net.nexthop import Nexthop
from repro.net.prefix import Prefix


class UpdateKind(enum.Enum):
    """Announce carries a nexthop (insert-or-change); withdraw removes."""

    ANNOUNCE = "announce"
    WITHDRAW = "withdraw"


@dataclass(frozen=True)
class RouteUpdate:
    """One non-aggregated routing update destined for the FIB.

    ``timestamp`` is seconds since trace start (float; traces are replayed
    logically, so it only matters for burstiness/reporting).
    """

    kind: UpdateKind
    prefix: Prefix
    nexthop: Optional[Nexthop] = None
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is UpdateKind.ANNOUNCE and self.nexthop is None:
            raise ValueError("announce requires a nexthop")
        if self.kind is UpdateKind.WITHDRAW and self.nexthop is not None:
            raise ValueError("withdraw must not carry a nexthop")

    @classmethod
    def announce(
        cls, prefix: Prefix, nexthop: Nexthop, timestamp: float = 0.0
    ) -> "RouteUpdate":
        return cls(UpdateKind.ANNOUNCE, prefix, nexthop, timestamp)

    @classmethod
    def withdraw(cls, prefix: Prefix, timestamp: float = 0.0) -> "RouteUpdate":
        return cls(UpdateKind.WITHDRAW, prefix, None, timestamp)

    @property
    def is_announce(self) -> bool:
        return self.kind is UpdateKind.ANNOUNCE


@dataclass
class UpdateTrace:
    """A replayable sequence of updates with summary statistics."""

    updates: list[RouteUpdate] = field(default_factory=list)
    name: str = "trace"

    def append(self, update: RouteUpdate) -> None:
        self.updates.append(update)

    def extend(self, updates: Iterable[RouteUpdate]) -> None:
        self.updates.extend(updates)

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self) -> Iterator[RouteUpdate]:
        return iter(self.updates)

    def __getitem__(
        self, index: "int | slice"
    ) -> "RouteUpdate | list[RouteUpdate]":
        return self.updates[index]

    @property
    def announce_count(self) -> int:
        return sum(1 for u in self.updates if u.is_announce)

    @property
    def withdraw_count(self) -> int:
        return len(self.updates) - self.announce_count

    @property
    def duration(self) -> float:
        """Trace span in seconds (0 for empty or untimestamped traces)."""
        if not self.updates:
            return 0.0
        return self.updates[-1].timestamp - self.updates[0].timestamp

    def touched_prefixes(self) -> set[Prefix]:
        return {u.prefix for u in self.updates}

    def summary(self) -> dict[str, float]:
        return {
            "updates": len(self),
            "announces": self.announce_count,
            "withdraws": self.withdraw_count,
            "unique_prefixes": len(self.touched_prefixes()),
            "duration_s": self.duration,
        }


def iter_bursts(
    updates: Iterable[RouteUpdate],
    max_gap_s: Optional[float] = None,
    max_size: Optional[int] = None,
) -> Iterator[list[RouteUpdate]]:
    """Group a stream of updates into bursts for batched incorporation.

    A burst closes when the inter-arrival gap to the next update exceeds
    ``max_gap_s`` (BGP bursts are separated by quiet periods) or when it
    reaches ``max_size`` updates (a bound on FIB-update latency: the
    first update of a burst is not applied until the burst closes). At
    least one criterion must be given; every yielded burst is non-empty
    and the concatenation of all bursts is the input stream, in order.

    The gap test uses the |delta| of consecutive timestamps: real feeds
    occasionally carry clock skew (a collector restart, an NTP step),
    and a large *backward* jump is just as much a new burst as a forward
    quiet period — without the absolute value it would glue everything
    after the step into one unbounded burst.
    """
    if max_gap_s is None and max_size is None:
        raise ValueError("need max_gap_s and/or max_size")
    if max_gap_s is not None and max_gap_s < 0:
        raise ValueError("max_gap_s must be >= 0")
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be >= 1")
    burst: list[RouteUpdate] = []
    last_timestamp = 0.0
    for update in updates:
        gap_exceeded = (
            burst
            and max_gap_s is not None
            and abs(update.timestamp - last_timestamp) > max_gap_s
        )
        full = max_size is not None and len(burst) >= max_size
        if burst and (gap_exceeded or full):
            yield burst
            burst = []
        burst.append(update)
        last_timestamp = update.timestamp
    if burst:
        yield burst
