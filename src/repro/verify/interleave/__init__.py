"""Layer 6: await-point atomicity and task-lifecycle analysis.

The effects layer (REPRO013-017) proves daemon functions are
*individually* async-safe: nothing blocks the loop, nothing bypasses
the determinism seams. This layer proves their *interleavings* are
safe. Cooperative scheduling makes every ``await`` a preemption point
— the only places another task can run — so the analyzer partitions
each async function body into await **segments** and models, per
segment, the shared-state accesses plus a lifecycle model of every
``asyncio.create_task`` / ``ensure_future`` site (who holds the
handle, who observes the exception). Six rules consume the model
(:mod:`~repro.verify.interleave.rules`):

- **REPRO018** ``torn-invariant`` — a read-modify-write of ``self``/
  tenant/daemon state spans an await: a single statement awaiting
  between read and store, a check in one segment satisfied by a write
  in a later one, or a stale local alias written back after an await;
- **REPRO019** ``fire-and-forget-task`` — a spawned task whose handle
  is discarded or never awaited/gathered/given a done-callback
  (``cancel()``/``done()`` do not observe exceptions);
- **REPRO020** ``unawaited-coroutine`` — calling a known-async
  function and discarding the coroutine, so its body never runs;
- **REPRO021** ``blocking-while-held`` — a blocking or unbounded
  operation inside an ``asyncio.Lock`` region or the queue-consumer
  window between ``await q.get()`` and ``q.task_done()``;
- **REPRO022** ``cancellation-unsafe`` — a bare/``BaseException``/
  ``CancelledError`` handler without a re-raise (cancellation never
  lands), or an awaited ``.acquire()`` with no ``finally`` release;
- **REPRO023** ``cross-task-aliasing`` — an async method writing
  per-tenant state that a spawned consumer task (``create_task(
  self._consume())``) also writes, instead of routing through the
  tenant queue.

The rules run through ``python -m repro.verify`` with the other
layers. See ``docs/VERIFICATION.md`` for the preemption-point model
and the recipe for blessing a deliberate fire-and-forget task.
"""

from repro.verify.interleave.model import FuncModel, build_models
from repro.verify.interleave.tasks import SpawnSite, extract_spawns

__all__ = ["FuncModel", "SpawnSite", "build_models", "extract_spawns"]
