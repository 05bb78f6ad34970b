"""Machine-enforced correctness tooling for the SMALTA core.

The paper reports that the authors "automatically computed the
correctness of millions of updated aggregated tables"; this package is
that machinery, grown into six layers. Two check live state at run
time:

- :mod:`repro.verify.invariants` — a structural auditor that walks the
  OT/AT union trie once and checks the bookkeeping invariants the
  incremental algorithms rely on (preimage pointers, the reverse
  deaggregate index, label consistency, semantic equivalence), reporting
  :class:`~repro.verify.invariants.Violation` records instead of bare
  asserts;
- :mod:`repro.verify.audit` — the sanitizer-style self-checking mode:
  :class:`~repro.verify.audit.AuditConfig` plugs the auditor into
  :class:`~repro.core.manager.SmaltaManager` (off / every-N-updates /
  every-snapshot), raising :class:`~repro.verify.audit.AuditError` or
  logging on violation.

Four check the source, as one analyzer with one rule registry
(:mod:`repro.verify.engine`, REPRO001–REPRO023) and one command line,
``python -m repro.verify``:

- :mod:`repro.verify.lint` — per-file AST rules REPRO001–REPRO003,
  REPRO005 and REPRO006 that keep the hot paths safe to refactor
  (``__slots__`` on node classes, no trie-bookkeeping writes outside
  ``core/``, no wall-clock reads in algorithm code, annotations on
  public functions, no truthiness tests on ``__len__``-bearing
  objects);
- :mod:`repro.verify.flow` — a repo-wide call graph plus per-function
  CFG dataflow, running interprocedural rules REPRO007–REPRO012
  (recursion, dropped ``@must_consume`` deltas, mutation during live
  traversals, typestate protocols, swallowed failures, metric-catalog
  drift);
- :mod:`repro.verify.effects` — bottom-up interprocedural effect/purity
  inference over the same call graph, running rules REPRO013–REPRO015
  and REPRO017 (blocking-in-async, determinism-seam bypass,
  tenant-escape, impure snapshot paths);
- :mod:`repro.verify.interleave` — await-segment and task-lifecycle
  models of the daemon's ``async def`` code, running rules
  REPRO018–REPRO023 (torn invariants, fire-and-forget tasks, unawaited
  coroutines, blocking while a lock is held, cancellation safety,
  cross-task aliasing).

The four static layers share a single parse pass, one model of each
scope (:class:`~repro.verify.flow.project.Scope`: its nodes and type
environment, built once), one :class:`~repro.verify.findings.Finding`
type with its inline suppressions, and a content-hash incremental
cache (``.repro-cache/``).

See ``docs/VERIFICATION.md`` for the full invariant and rule catalogue.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - static-analysis aid only
    from repro.verify.audit import AuditConfig, AuditError
    from repro.verify.invariants import (
        InvariantCode,
        Violation,
        audit_state,
        audit_trie,
    )

__all__ = [
    "AuditConfig",
    "AuditError",
    "InvariantCode",
    "Violation",
    "audit_state",
    "audit_trie",
]

#: Which sibling module provides each lazily re-exported name.
_EXPORTS = {
    "AuditConfig": "repro.verify.audit",
    "AuditError": "repro.verify.audit",
    "InvariantCode": "repro.verify.invariants",
    "Violation": "repro.verify.invariants",
    "audit_state": "repro.verify.invariants",
    "audit_trie": "repro.verify.invariants",
}


def __getattr__(name: str) -> object:
    """Resolve the public surface lazily (PEP 562).

    The auditor modules import ``repro.core``, while ``repro.core``
    imports :mod:`repro.verify.markers` for the ``@must_consume``
    contract marker; deferring the auditor imports keeps that pair of
    dependencies acyclic.
    """
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
