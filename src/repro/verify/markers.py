"""Zero-cost source annotations consumed by the flow analyzer.

The markers here change nothing at runtime — they exist so the
whole-program engine (:mod:`repro.verify.flow`) can recognise API
contracts structurally instead of hard-coding qualified names.

This module must stay dependency-free: it is imported by
``repro.core`` (the algorithmic layer), and anything heavier would
create an import cycle through ``repro.verify``'s auditor, which itself
imports the core.
"""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable[..., object])


def must_consume(func: F) -> F:
    """Mark ``func``'s return value as one the caller may not drop.

    Rule **REPRO008** (dropped-delta) flags any call site where the
    returned value's definition reaches function exit without a use.
    The canonical subjects are the FIB-download deltas produced by
    ``SmaltaState.insert/delete/apply_batch/snapshot`` and
    ``diff_tables``: a dropped delta is a kernel that silently diverges
    from the aggregated table.

    Deliberate discards go through a consuming wrapper API (e.g.
    ``SmaltaState.rebuild`` / ``SmaltaManager.rebuild_at``) so the
    intent is visible in the type system, not through suppression
    comments.

    The decorator itself is the identity function — zero overhead, no
    wrapping, ``func is must_consume(func)``.
    """
    return func

