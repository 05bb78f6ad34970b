"""The task-lifecycle model: spawn sites and their exception sinks.

A call to ``asyncio.create_task`` / ``asyncio.ensure_future`` starts a
task whose exceptions go nowhere unless *something* retains the handle
and eventually observes it. This module classifies every spawn site in
a function body: where the returned handle is bound (discarded, a local
name, an attribute, an argument), and — for locally bound handles —
whether the function ever gives the task a sink (``await``, ``gather``/
``wait``/``shield``, ``add_done_callback``, ``result``/``exception``,
or escaping via ``return``/``yield``). Calling ``.cancel()`` or
polling ``.done()`` is *not* a sink: a cancelled-but-never-awaited
task still swallows any exception it raised before the cancel landed.

``TaskGroup``-style spawns (``tg.create_task(...)`` inside ``async
with asyncio.TaskGroup() as tg``) are structured concurrency — the
group awaits its children — and never register as spawn sites here.

Everything is a plain frozen dataclass so the per-file model pickles
into the :class:`~repro.verify.cache.AnalysisCache`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional, Sequence

#: Call / attribute names that start a free-running task.
SPAWN_NAMES = frozenset({"create_task", "ensure_future"})

#: Awaitable-combinator names: a handle passed into one is sunk.
COMBINATOR_NAMES = frozenset(
    {"gather", "wait", "wait_for", "shield", "as_completed"}
)

#: Task-handle methods that observe the result (exception sink).
SINK_TASK_ATTRS = frozenset({"add_done_callback", "result", "exception"})

#: Task-handle methods that do NOT observe the result.
NEUTRAL_TASK_ATTRS = frozenset(
    {
        "cancel",
        "cancelled",
        "cancelling",
        "uncancel",
        "done",
        "get_name",
        "set_name",
        "get_coro",
    }
)


@dataclass(frozen=True)
class SpawnSite:
    """One ``create_task``/``ensure_future`` call and its fate."""

    lineno: int
    #: How the returned handle is bound: ``discarded`` (bare expression
    #: statement), ``named`` (local name, possibly via a comprehension),
    #: ``attribute`` (stored on an object), or ``sunk`` (awaited inline,
    #: passed onward, returned, ...).
    binding: str
    name: str = ""  #: the bound local name when ``binding == "named"``
    #: ``m`` when the spawned coroutine is ``self.m(...)`` — the
    #: cross-task aliasing rule's task-owner marker.
    target_self_method: str = ""
    #: Final verdict: True when an exception sink (or escape) exists.
    sunk: bool = False


def _parent_map(body: Sequence[ast.stmt]) -> dict[ast.AST, ast.AST]:
    """Child -> parent over the whole body subtree (iterative)."""
    parents: dict[ast.AST, ast.AST] = {}
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            parents[child] = node
            stack.append(child)
    return parents


def _group_names(body: Sequence[ast.stmt]) -> frozenset[str]:
    """Names bound by ``async with ...TaskGroup() as NAME`` items."""
    names: set[str] = set()
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                tail = ""
                if isinstance(expr, ast.Call):
                    func = expr.func
                    if isinstance(func, ast.Attribute):
                        tail = func.attr
                    elif isinstance(func, ast.Name):
                        tail = func.id
                if tail.endswith("TaskGroup") and isinstance(
                    item.optional_vars, ast.Name
                ):
                    names.add(item.optional_vars.id)
        stack.extend(ast.iter_child_nodes(node))
    return frozenset(names)


def _is_spawn_call(call: ast.Call, groups: frozenset[str]) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in SPAWN_NAMES
    if isinstance(func, ast.Attribute) and func.attr in SPAWN_NAMES:
        # A TaskGroup spawn is structured: the group is the sink.
        if isinstance(func.value, ast.Name) and func.value.id in groups:
            return False
        return True
    return False


def _self_method(call: ast.Call) -> str:
    """``m`` when the first spawn argument is a ``self.m(...)`` call."""
    if len(call.args) == 0:
        return ""
    coro = call.args[0]
    if (
        isinstance(coro, ast.Call)
        and isinstance(coro.func, ast.Attribute)
        and isinstance(coro.func.value, ast.Name)
        and coro.func.value.id == "self"
    ):
        return coro.func.attr
    return ""


def _classify_binding(
    call: ast.Call, parents: dict[ast.AST, ast.AST]
) -> tuple[str, str]:
    """``(binding, name)`` for a spawn call, walking up the parents."""
    node: ast.AST = call
    while True:
        parent = parents.get(node)
        if parent is None:
            return "sunk", ""  # unreachable shape: stay silent
        if isinstance(parent, ast.Await):
            return "sunk", ""
        if isinstance(parent, ast.Expr):
            return "discarded", ""
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return "sunk", ""
        if isinstance(parent, ast.Call) and node is not parent.func:
            return "sunk", ""  # argument to gather/append/...: escaped
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            targets = (
                list(parent.targets)
                if isinstance(parent, ast.Assign)
                else [parent.target]
            )
            if any(
                isinstance(t, (ast.Attribute, ast.Subscript)) for t in targets
            ):
                return "attribute", ""
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                return "named", targets[0].id
            return "sunk", ""
        if isinstance(
            parent,
            (
                ast.ListComp,
                ast.SetComp,
                ast.GeneratorExp,
                ast.List,
                ast.Tuple,
                ast.Set,
                ast.Starred,
                ast.IfExp,
                ast.BoolOp,
                ast.comprehension,
            ),
        ):
            node = parent  # the container's fate decides
            continue
        return "sunk", ""


def _loop_aliases(
    body: Sequence[ast.stmt], names: frozenset[str]
) -> frozenset[str]:
    """Loop variables iterating over a tracked container of handles."""
    aliases: set[str] = set(names)
    changed = True
    while changed:
        changed = False
        stack: list[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if (
                isinstance(node, (ast.For, ast.AsyncFor))
                and isinstance(node.iter, ast.Name)
                and node.iter.id in aliases
                and isinstance(node.target, ast.Name)
                and node.target.id not in aliases
            ):
                aliases.add(node.target.id)
                changed = True
            stack.extend(ast.iter_child_nodes(node))
    return frozenset(aliases - names)


def _has_sink(
    body: Sequence[ast.stmt],
    parents: dict[ast.AST, ast.AST],
    names: frozenset[str],
) -> bool:
    """True when any appearance of ``names`` observes the task."""
    aliases = _loop_aliases(body, names)
    watched = names | aliases
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        stack.extend(ast.iter_child_nodes(node))
        if not (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in watched
        ):
            continue
        parent = parents.get(node)
        if parent is None:
            continue
        if isinstance(parent, ast.Await):
            return True
        if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(parent, ast.Call) and node is not parent.func:
            return True  # argument to gather/wait/len/...: escaped
        if isinstance(parent, ast.Starred):
            return True  # *handles into a combinator call
        if isinstance(parent, ast.Attribute) and parent.value is node:
            if parent.attr in NEUTRAL_TASK_ATTRS:
                continue
            return True  # .add_done_callback/.result/unknown: observed
        if isinstance(parent, (ast.For, ast.AsyncFor)) and parent.iter is node:
            continue  # iteration only; the loop variable is tracked
        if isinstance(
            parent,
            (ast.Compare, ast.BoolOp, ast.UnaryOp, ast.If, ast.While, ast.IfExp),
        ):
            continue  # truthiness / identity tests observe nothing
        if isinstance(parent, ast.Subscript) and parent.value is node:
            continue
        if isinstance(parent, (ast.Assign, ast.AnnAssign)):
            return True  # aliased away: assume the alias is handled
        return True  # unknown shape: err toward silence
    return False


def extract_spawns(body: Sequence[ast.stmt]) -> tuple[SpawnSite, ...]:
    """Every free-running spawn site in ``body``, with its sink verdict."""
    parents = _parent_map(body)
    groups = _group_names(body)
    raw: list[tuple[ast.Call, str, str]] = []
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Call) and _is_spawn_call(node, groups):
            binding, name = _classify_binding(node, parents)
            raw.append((node, binding, name))
    sink_cache: dict[str, bool] = {}
    sites: list[SpawnSite] = []
    for call, binding, name in raw:
        if binding == "named":
            if name not in sink_cache:
                sink_cache[name] = _has_sink(body, parents, frozenset({name}))
            sunk = sink_cache[name]
        else:
            sunk = binding != "discarded"
        sites.append(
            SpawnSite(
                lineno=call.lineno,
                binding=binding,
                name=name,
                target_self_method=_self_method(call),
                sunk=sunk,
            )
        )
    sites.sort(key=lambda s: s.lineno)
    return tuple(sites)


def unsunk_spawns(sites: Sequence[SpawnSite]) -> list[SpawnSite]:
    """The fire-and-forget subset (rule REPRO019's subjects)."""
    return [site for site in sites if not site.sunk]


def describe_binding(site: SpawnSite) -> Optional[str]:
    """Human phrasing of an unsunk site's fate, None when sunk."""
    if site.sunk:
        return None
    if site.binding == "discarded":
        return "its handle is discarded on the spot"
    return (
        f"its handle {site.name!r} is never awaited, gathered, or given "
        "a done-callback (cancel()/done() do not observe exceptions)"
    )
