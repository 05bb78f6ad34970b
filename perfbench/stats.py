"""Order statistics the benchmark reports.

A percentile is reported only when at least :data:`MIN_BEYOND` samples
lie beyond it; with fewer, its value is decided by a handful of samples
and does not repeat from run to run.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

MIN_BEYOND = 10

#: Candidate tail percentiles, highest first.
TAIL_GRID = (0.99, 0.9, 0.75, 0.5)


def beyond(quantile: float, count: int) -> int:
    """Samples strictly above the nearest-rank ``quantile`` of ``count``."""
    return count - math.ceil(quantile * count)


def percentile(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile; refuses one with too few samples beyond it."""
    count = len(values)
    if count == 0 or beyond(quantile, count) < MIN_BEYOND:
        raise ValueError(
            f"p{quantile * 100:g} of {count} samples has fewer than "
            f"{MIN_BEYOND} samples beyond it"
        )
    ordered = sorted(values)
    return ordered[max(0, math.ceil(quantile * count) - 1)]


def tail(values: Sequence[float]) -> Optional[tuple[float, float]]:
    """The highest percentile of :data:`TAIL_GRID` that :func:`percentile`
    accepts, as ``(quantile, value)``; None when even the median has fewer
    than ten samples beyond it."""
    for quantile in TAIL_GRID:
        if beyond(quantile, len(values)) >= MIN_BEYOND:
            return quantile, percentile(values, quantile)
    return None


def tail_or_max(values: Sequence[float]) -> tuple[str, float]:
    """:func:`tail` with its label (``"p75 of 40"``), or the maximum when
    the samples are too few for any percentile (``"max of 5"``)."""
    found = tail(values)
    if found is None:
        return f"max of {len(values)}", max(values)
    return f"p{found[0] * 100:g} of {len(values)}", found[1]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the steadiness
    measure: ``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf
