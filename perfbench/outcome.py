"""What one run reports."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Outcome:
    """Metrics by name as ``(value, unit)``, the operations attempted and
    failed, one line per failure, and notes printed beside the metrics."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)


def metric(value: float, unit: str) -> tuple[float, str]:
    return (float(value), unit)
