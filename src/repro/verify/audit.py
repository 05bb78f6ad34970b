"""Self-checking (sanitizer) mode for the SMALTA manager.

:class:`AuditConfig` describes *when* the invariant auditor runs inline
inside :class:`~repro.core.manager.SmaltaManager` and *what happens* on
a violation. The modes mirror how sanitizers are deployed: off in the
fastest production builds, every-N-updates while qualifying a change,
every-snapshot as a cheap always-on tripwire (a snapshot already costs a
full ORTC pass, so one extra trie walk is noise).

The stateful Hypothesis tests and the examples flip this on; the
benchmark suite measures its overhead (``benchmarks/test_bench_micro``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.verify.invariants import Violation, audit_state

if TYPE_CHECKING:
    from repro.core.smalta import SmaltaState

logger = logging.getLogger("repro.verify")


class AuditError(AssertionError):
    """Raised by audit mode when the inline auditor finds violations."""

    def __init__(self, trigger: str, violations: list[Violation]) -> None:
        self.trigger = trigger
        self.violations = violations
        lines = "; ".join(str(v) for v in violations)
        super().__init__(
            f"audit after {trigger} found {len(violations)} violation(s): {lines}"
        )


@dataclass(frozen=True)
class AuditConfig:
    """When to run the inline auditor and how to react.

    - ``every_updates`` — audit after every N incorporated updates
      (None disables the per-update trigger);
    - ``on_snapshot`` — audit right after each completed snapshot;
    - ``check_optimal_after_snapshot`` — additionally assert post-ORTC
      label minimality and AT == ``ortc(OT)`` entry for entry on the
      snapshot trigger (never on the per-update trigger, where transient
      redundancy is expected);
    - ``raise_on_violation`` — raise :class:`AuditError` (the test-suite
      mode); False logs through the ``repro.verify`` logger and keeps
      forwarding (the production mode).
    """

    every_updates: Optional[int] = None
    on_snapshot: bool = False
    check_optimal_after_snapshot: bool = False
    raise_on_violation: bool = True

    def __post_init__(self) -> None:
        if self.every_updates is not None and self.every_updates < 1:
            raise ValueError("every_updates must be >= 1 (or None)")

    # -- constructors ---------------------------------------------------

    @classmethod
    def off(cls) -> "AuditConfig":
        """No inline auditing (the default production configuration)."""
        return cls()

    @classmethod
    def every(
        cls, updates: int, raise_on_violation: bool = True
    ) -> "AuditConfig":
        """Audit every ``updates`` incorporated updates and every snapshot."""
        return cls(
            every_updates=updates,
            on_snapshot=True,
            raise_on_violation=raise_on_violation,
        )

    @classmethod
    def each_snapshot(cls, raise_on_violation: bool = True) -> "AuditConfig":
        """Audit only after snapshots (the always-on tripwire).

        Every check walks the whole table, the ``ortc(OT)`` comparison
        included, so an audit costs far more than the incremental
        snapshot it follows; see docs/VERIFICATION.md.
        """
        return cls(
            on_snapshot=True,
            check_optimal_after_snapshot=True,
            raise_on_violation=raise_on_violation,
        )

    @property
    def enabled(self) -> bool:
        return self.every_updates is not None or self.on_snapshot

    # -- execution ------------------------------------------------------

    def run(self, state: "SmaltaState", trigger: str) -> list[Violation]:
        """Audit ``state`` now; react per configuration.

        ``trigger`` is ``"update"`` or ``"snapshot"`` (used both to pick
        the check set and to label the report). Returns the violations
        so a logging-mode caller can still inspect them.
        """
        violations = audit_state(
            state,
            optimal=(trigger == "snapshot" and self.check_optimal_after_snapshot),
        )
        if violations:
            if self.raise_on_violation:
                raise AuditError(trigger, violations)
            for violation in violations:
                logger.error("audit after %s: %s", trigger, violation)
        return violations
