"""Whole-program semantic analysis for the SMALTA repo.

Where the lint rules (:mod:`repro.verify.lint`) check one file at a
time, this package parses the *entire* ``src/repro`` tree into a shared
model — module/import resolution (:mod:`~repro.verify.flow.project`),
a repo-wide call graph with heuristic method resolution and the one
iterative Tarjan SCC (:mod:`~repro.verify.flow.callgraph`),
per-function control-flow graphs (:mod:`~repro.verify.flow.cfg`) and an
intraprocedural dataflow framework (:mod:`~repro.verify.flow.dataflow`)
— and runs six interprocedural rules on top
(:mod:`~repro.verify.flow.rules`):

- **REPRO007** recursion: call-graph cycles, plus nested defs and
  lambdas that re-enter an enclosing def (resolved lexically);
- **REPRO008** dropped ``@must_consume`` results — FIB deltas that
  reach function exit unconsumed;
- **REPRO009** trie mutation while a lazy traversal of the same
  structure is live;
- **REPRO010** typestate protocols (``SmaltaState`` load-before-use,
  ``DownloadChannel`` use-after-close);
- **REPRO011** swallowed failure signals (``ReconcileError`` /
  ``AuditError`` / ``Violation`` handled without re-raise, log, or
  metric);
- **REPRO012** metric-name drift between ``registry.counter/...``
  literals and the catalog tables in ``docs/OBSERVABILITY.md`` /
  ``docs/RESILIENCE.md`` / ``docs/DAEMON.md`` — both directions.

The effects and interleave layers build on the same project and call
graph. All of them run through ``python -m repro.verify``; see
``docs/VERIFICATION.md`` for the rule catalog and the recipe for
adding a rule.
"""
