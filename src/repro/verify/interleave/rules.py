"""The six interleave rules (REPRO018-023) over the segment model.

Each rule consumes the per-function :class:`FuncModel` built by
:mod:`repro.verify.interleave.model` (``ctx.models`` of the shared
:class:`~repro.verify.context.RuleContext`) — plus, where cross-file
facts are needed (coroutine resolution, class method tables), the
shared :class:`Project` and :class:`CallGraph`. Finding messages never
embed line numbers (fingerprints hash the message); positions inside a
function are phrased as await-*segment* numbers, which survive edits
elsewhere in the file. :data:`SPECS` joins the registry in
:mod:`repro.verify.engine`.
"""

from __future__ import annotations

import ast

from repro.verify.context import RuleContext, RuleSpec
from repro.verify.findings import Finding
from repro.verify.flow.callgraph import resolve_call
from repro.verify.flow.project import FunctionInfo
from repro.verify.interleave.model import FuncModel
from repro.verify.interleave.tasks import describe_binding, unsunk_spawns


def _async_models(ctx: RuleContext) -> list[tuple[FunctionInfo, FuncModel]]:
    """Every async project function with its model, in name order."""
    pairs: list[tuple[FunctionInfo, FuncModel]] = []
    for qualname in sorted(ctx.models):
        func = ctx.project.functions.get(qualname)
        if func is not None and ctx.models[qualname].is_async:
            pairs.append((func, ctx.models[qualname]))
    return pairs


def _rule_torn_invariant(ctx: RuleContext) -> list[Finding]:
    """REPRO018: a read-then-write of the same attribute spans an await."""
    findings: list[Finding] = []
    for func, model in _async_models(ctx):
        seen: set[tuple[str, str]] = set()
        for event in model.events:
            if event.op != "rmw" or (event.receiver, event.attr) in seen:
                continue
            seen.add((event.receiver, event.attr))
            findings.append(
                Finding(
                    rule="REPRO018",
                    path=ctx.rel(func.path),
                    line=event.lineno,
                    symbol=func.qualname,
                    message=(
                        f"read-modify-write of {event.receiver}.{event.attr} "
                        "spans an await inside one statement: another task "
                        "can run between the read and the store, tearing the "
                        "invariant; read into a local before the await or "
                        "guard the update with a lock"
                    ),
                )
            )
        # Stale-guard / stale-alias forms: an attribute observed in an
        # earlier segment, rewritten in a later one. Cleanup writes
        # (except/finally) are compensation, not claims — skipped.
        writes = [
            e
            for e in model.events
            if e.op == "write" and not e.in_cleanup
        ]
        for event in model.events:
            if event.op == "guard":
                for write in writes:
                    pair = (event.receiver, event.attr)
                    if (
                        (write.receiver, write.attr) == pair
                        and write.segment > event.segment
                        and pair not in seen
                    ):
                        seen.add(pair)
                        findings.append(
                            Finding(
                                rule="REPRO018",
                                path=ctx.rel(func.path),
                                line=event.lineno,
                                symbol=func.qualname,
                                message=(
                                    f"checks {event.receiver}.{event.attr} in "
                                    f"await segment {event.segment} but only "
                                    "writes it in segment "
                                    f"{write.segment}: a second task entering "
                                    "between the check and the write passes "
                                    "the same check; claim the state "
                                    "synchronously (before the first await) "
                                    "or serialize with a lock"
                                ),
                            )
                        )
                        break
            elif event.op == "alias":
                for write in writes:
                    pair = (event.receiver, event.attr)
                    if (
                        (write.receiver, write.attr) == pair
                        and write.segment > event.segment
                        and event.alias in write.uses
                        and pair not in seen
                    ):
                        seen.add(pair)
                        findings.append(
                            Finding(
                                rule="REPRO018",
                                path=ctx.rel(func.path),
                                line=event.lineno,
                                symbol=func.qualname,
                                message=(
                                    f"reads {event.receiver}.{event.attr} "
                                    f"into {event.alias!r} in await segment "
                                    f"{event.segment} and writes it back "
                                    f"from {event.alias!r} in segment "
                                    f"{write.segment}: updates landing "
                                    "between the two are lost; recompute "
                                    "after the await or hold a lock across "
                                    "the read-write span"
                                ),
                            )
                        )
                        break
    return findings


def _rule_fire_and_forget(ctx: RuleContext) -> list[Finding]:
    """REPRO019: a spawned task nobody awaits, gathers, or observes."""
    findings: list[Finding] = []
    for qualname in sorted(ctx.models):
        func = ctx.project.functions.get(qualname)
        model = ctx.models[qualname]
        if func is None:
            continue
        for site in unsunk_spawns(model.spawns):
            fate = describe_binding(site)
            if fate is None:
                continue
            findings.append(
                Finding(
                    rule="REPRO019",
                    path=ctx.rel(func.path),
                    line=site.lineno,
                    symbol=func.qualname,
                    message=(
                        "fire-and-forget task: "
                        + fate
                        + ", so an exception in the task is silently "
                        "swallowed; await/gather it, store the handle with "
                        "an add_done_callback sink, or bless the site with "
                        "# repro: allow[REPRO019]"
                    ),
                )
            )
    return findings


def _rule_unawaited_coroutine(ctx: RuleContext) -> list[Finding]:
    """REPRO020: calling a known-async function and dropping the result."""
    findings: list[Finding] = []
    for qualname in sorted(ctx.models):
        func = ctx.project.functions.get(qualname)
        if func is None:
            continue
        scope = func.scope
        for stmt in scope.nodes:
            if not (
                isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            ):
                continue
            callee = resolve_call(ctx.project, scope.module, scope.env, stmt.value)
            if (
                callee is None
                or callee.is_generator
                or not isinstance(callee.node, ast.AsyncFunctionDef)
            ):
                continue
            findings.append(
                Finding(
                    rule="REPRO020",
                    path=ctx.rel(func.path),
                    line=stmt.lineno,
                    symbol=func.qualname,
                    message=(
                        f"calls async {callee.qualname} without awaiting: "
                        "the coroutine object is created and discarded, so "
                        "the body never runs; await it or hand it to "
                        "create_task/gather"
                    ),
                )
            )
    return findings


def _rule_held_across(ctx: RuleContext) -> list[Finding]:
    """REPRO021: blocking/unbounded work inside a critical section."""
    findings: list[Finding] = []
    for func, model in _async_models(ctx):
        for site in model.held:
            if site.kind == "blocking":
                advice = (
                    "the event loop (and every other task) stalls while the "
                    "section is held; move the blocking call outside, or "
                    "run it in an executor"
                )
                what = f"blocking call {site.detail}"
            else:
                advice = (
                    "the section stays held for an unbounded time, starving "
                    "every other waiter; bound it with wait_for or restructure "
                    "so the unbounded wait happens outside"
                )
                what = f"unbounded await {site.detail}"
            findings.append(
                Finding(
                    rule="REPRO021",
                    path=ctx.rel(func.path),
                    line=site.lineno,
                    symbol=func.qualname,
                    message=f"{what} inside {site.region}: {advice}",
                )
            )
    return findings


def _rule_cancellation(ctx: RuleContext) -> list[Finding]:
    """REPRO022: handlers that swallow CancelledError; leaked acquires."""
    findings: list[Finding] = []
    for func, model in _async_models(ctx):
        for site in model.excepts:
            if site.reraises:
                continue
            if site.kind == "bare":
                clause = "a bare except:"
            elif site.kind == "base":
                clause = "except BaseException"
            else:
                clause = "an except clause naming CancelledError"
            findings.append(
                Finding(
                    rule="REPRO022",
                    path=ctx.rel(func.path),
                    line=site.lineno,
                    symbol=func.qualname,
                    message=(
                        f"{clause} swallows asyncio.CancelledError without "
                        "re-raising: cancellation never lands and the task "
                        "outlives its lifecycle; catch Exception instead, or "
                        "re-raise the caught error"
                    ),
                )
            )
        for acquire in model.acquires:
            if acquire.released_in_finally:
                continue
            findings.append(
                Finding(
                    rule="REPRO022",
                    path=ctx.rel(func.path),
                    line=acquire.lineno,
                    symbol=func.qualname,
                    message=(
                        f"awaits {acquire.receiver or '<lock>'}.acquire() "
                        "without a matching release() in a finally: a "
                        "cancellation landing while the lock is held leaks "
                        "it forever; use `async with` or release in finally"
                    ),
                )
            )
    return findings


def _consumer_write_set(
    ctx: RuleContext, cls_prefix: str, entry: str
) -> tuple[frozenset[str], frozenset[str]]:
    """Attrs written by the consumer closure; and the closure itself.

    The closure is the entry method plus everything it reaches through
    ``self.`` calls within the same class.
    """
    closure: set[str] = set()
    worklist = [entry]
    while worklist:
        qualname = worklist.pop()
        if qualname in closure or not qualname.startswith(cls_prefix):
            continue
        closure.add(qualname)
        for site in ctx.graph.sites:
            if site.caller == qualname and site.via_self:
                worklist.append(site.callee)
    writes: set[str] = set()
    for qualname in closure:
        model = ctx.models.get(qualname)
        if model is None:
            continue
        for event in model.events:
            if event.op in ("write", "rmw", "mutate") and event.receiver == "self":
                writes.add(event.attr)
    return frozenset(writes), frozenset(closure)


def _rule_cross_task_alias(ctx: RuleContext) -> list[Finding]:
    """REPRO023: another task's state written outside the owner task."""
    findings: list[Finding] = []
    # Consumer entries: methods this class spawns as free-running tasks
    # over ``self`` (``create_task(self._consume())``).
    spawned: dict[str, set[str]] = {}
    for qualname, model in ctx.models.items():
        func = ctx.project.functions.get(qualname)
        if func is None or func.cls is None:
            continue
        prefix = qualname.rsplit(".", 1)[0]
        for site in model.spawns:
            if site.target_self_method:
                spawned.setdefault(prefix, set()).add(
                    f"{prefix}.{site.target_self_method}"
                )
    for prefix in sorted(spawned):
        for entry in sorted(spawned[prefix]):
            writes, closure = _consumer_write_set(ctx, prefix + ".", entry)
            if not writes:
                continue
            for qualname in sorted(ctx.models):
                if not qualname.startswith(prefix + ".") or qualname in closure:
                    continue
                func = ctx.project.functions.get(qualname)
                model = ctx.models[qualname]
                if func is None or not model.is_async:
                    continue
                flagged: set[str] = set()
                for event in model.events:
                    if (
                        event.op not in ("write", "rmw", "mutate")
                        or event.receiver != "self"
                        or event.attr not in writes
                        or event.attr in flagged
                    ):
                        continue
                    flagged.add(event.attr)
                    entry_name = entry.rsplit(".", 1)[-1]
                    findings.append(
                        Finding(
                            rule="REPRO023",
                            path=ctx.rel(func.path),
                            line=event.lineno,
                            symbol=func.qualname,
                            message=(
                                f"writes self.{event.attr}, which the "
                                f"spawned consumer task ({entry_name}) also "
                                "writes: two tasks interleave on the same "
                                "per-tenant state; route the change through "
                                "the task's queue instead of mutating "
                                "directly"
                            ),
                        )
                    )
    return findings


SPECS: tuple[RuleSpec, ...] = (
    RuleSpec(
        "REPRO018",
        "torn-invariant",
        "read-modify-write of shared state spans an await point",
        _rule_torn_invariant,
    ),
    RuleSpec(
        "REPRO019",
        "fire-and-forget-task",
        "spawned task has no retained reference or exception sink",
        _rule_fire_and_forget,
    ),
    RuleSpec(
        "REPRO020",
        "unawaited-coroutine",
        "result of calling an async function is discarded unawaited",
        _rule_unawaited_coroutine,
    ),
    RuleSpec(
        "REPRO021",
        "blocking-while-held",
        "blocking or unbounded operation inside a critical section",
        _rule_held_across,
    ),
    RuleSpec(
        "REPRO022",
        "cancellation-unsafe",
        "CancelledError swallowed or lifecycle guard not released",
        _rule_cancellation,
    ),
    RuleSpec(
        "REPRO023",
        "cross-task-aliasing",
        "state owned by a spawned task is written from another task",
        _rule_cross_task_alias,
    ),
)
