"""Layer 5: effect/purity inference and concurrency-readiness rules.

The asyncio aggregation daemon runs many tenants' managers interleaved
in one process, in a codebase whose correctness story assumes
single-threaded determinism. This package proves which functions are
pure, which module state is shared between entry points that may run
concurrently, and which call paths would block the event loop or break
the injected-clock / seeded-RNG determinism seams.

It builds on the flow engine (:mod:`repro.verify.flow`): the same
project symbol table and call graph, extended with a bottom-up
interprocedural **effect inference** (:mod:`~repro.verify.effects.infer`)
that summarizes, per function and propagated over the SCCs of the call
graph, every blocking call, raw clock read, unseeded RNG use, IO
operation, and module-global write. Four rules consume the summaries
(:mod:`~repro.verify.effects.rules`):

- **REPRO013** ``blocking-in-async`` — a blocking call (``time.sleep``,
  file IO, subprocess, sockets) reachable from an ``async def``;
- **REPRO014** ``seam-bypass`` — a direct clock read or unseeded RNG
  use outside ``repro.faults`` and the blessed ``rng: random.Random``
  parameter idiom;
- **REPRO015** ``tenant-escape`` — module-level mutable state written
  from more than one tenant entry point (``SmaltaManager``'s public
  methods, which each daemon tenant calls), which would couple the
  daemon's tenants;
- **REPRO017** ``impure-snapshot-path`` — a global write, IO, or
  nondeterminism source reachable from ``snapshot``/``snapshot_now``
  or ``ortc_table`` (the ORTC passes the snapshot runs): a snapshot
  must be a pure function of the trie, so a rerun, a replay, or the
  ``ortc()`` cross-check sees the same table. The state the
  incremental snapshot keeps lives on the trie's nodes, never in a
  module.

The rules run through ``python -m repro.verify`` with the other
layers. See ``docs/VERIFICATION.md`` for the effect lattice and the
recipe for blessing a new determinism seam.
"""

from repro.verify.effects.infer import EffectIndex, infer_effects
from repro.verify.effects.summary import EffectSite

__all__ = ["EffectIndex", "EffectSite", "infer_effects"]
