"""Await-point segmentation: the interleave analyzer's per-file model.

Cooperative scheduling gives asyncio code exactly one preemption shape:
another task can only run at an ``await``. The model therefore numbers
the *segments* of every function body — segment 0 runs before the
first await, segment 1 between the first and the second, and so on —
in execution order (an ``Assign`` evaluates its value before storing,
so ``self.x = await f()`` reads in one segment and stores in the
next). ``async for`` / ``async with`` entries count as preemption
points too.

Shared-state accesses are recorded as :class:`AttrEvent` instances
placed in their segment. Tracked receivers are ``self`` (instance
state) and parameters annotated with a class type (``tenant: Tenant``)
— module-global state is the effects layer's territory (REPRO015).
Only the access shapes the rules consume are recorded:

- ``write`` — an assignment/del through a tracked attribute, with the
  names its value reads (for the alias form of REPRO018);
- ``alias`` — ``tmp = self.x`` binding a tracked attribute to a local;
- ``guard`` — an ``if``/``while`` test reading a tracked attribute;
- ``rmw``   — a single statement that reads and rewrites the same
  attribute around an ``await`` in its value;
- ``mutate`` — an in-place container mutation (``self.xs.append``).

Writes lexically inside ``except`` handlers or ``finally`` bodies are
flagged ``in_cleanup``: compensation writes are not claim-establishing
and the torn-invariant rule skips them.

The model is file-local and purely syntactic, so it pickles into the
:class:`~repro.verify.cache.AnalysisCache` keyed on the file's content
digest; anything needing cross-file resolution (call targets, class
tables) happens at rule time against the shared project.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.verify.cache import AnalysisCache, content_key
from repro.verify.effects.summary import (
    BLOCKING_CALLS,
    BUILTIN_CALLS,
    FILE_IO_ATTRS,
)
from repro.verify.flow.callgraph import MUTATING_METHODS
from repro.verify.flow.project import (
    FunctionInfo,
    Project,
    annotation_name,
)
from repro.verify.interleave.tasks import SpawnSite, extract_spawns

#: ``await <recv>.<attr>()`` shapes with no intrinsic bound: they park
#: the awaiting task until a peer signals, which may be never.
UNBOUNDED_AWAIT_ATTRS = frozenset({"get", "join", "wait", "acquire"})

#: Receiver-name substrings that mark an asyncio lock guard.
LOCK_NAME_HINTS = ("lock", "mutex")

#: Receiver-name substrings that mark a feed/work queue.
QUEUE_NAME_HINTS = ("queue",)


@dataclass(frozen=True)
class AttrEvent:
    """One shared-state access, placed in its await segment."""

    op: str  #: ``write`` | ``alias`` | ``guard`` | ``rmw`` | ``mutate``
    receiver: str  #: the tracked name (``self``, an annotated param)
    attr: str
    segment: int
    lineno: int
    alias: str = ""  #: local name bound by an ``alias`` event
    uses: tuple[str, ...] = ()  #: names the written value reads
    in_cleanup: bool = False  #: inside an except handler / finally body


@dataclass(frozen=True)
class ExceptSite:
    """One cancellation-relevant exception handler."""

    kind: str  #: ``bare`` | ``base`` | ``cancelled``
    lineno: int
    reraises: bool


@dataclass(frozen=True)
class HeldSite:
    """A risky operation inside a lock region or consumer window."""

    region: str  #: e.g. ``async with self._lock`` or the queue window
    kind: str  #: ``blocking`` | ``unbounded-await``
    detail: str
    lineno: int


@dataclass(frozen=True)
class AcquireSite:
    """One ``await <lock>.acquire()`` and whether a finally releases it."""

    receiver: str
    lineno: int
    released_in_finally: bool


@dataclass(frozen=True)
class FuncModel:
    """Everything the interleave rules know about one function."""

    qualname: str
    lineno: int
    is_async: bool
    events: tuple[AttrEvent, ...]
    spawns: tuple[SpawnSite, ...]
    excepts: tuple[ExceptSite, ...]
    held: tuple[HeldSite, ...]
    acquires: tuple[AcquireSite, ...]
    await_count: int


def _tracked_receivers(func: FunctionInfo) -> frozenset[str]:
    """``self`` plus parameters annotated with a class-looking type."""
    names: set[str] = set()
    args = func.node.args
    ordered = args.posonlyargs + args.args + args.kwonlyargs
    for position, arg in enumerate(ordered):
        if func.cls is not None and position == 0 and arg.arg in ("self", "cls"):
            names.add(arg.arg)
            continue
        annotated = annotation_name(arg.annotation)
        if annotated is not None and annotated[:1].isupper():
            names.add(arg.arg)
    return frozenset(names)


def _iter_subtree(*roots: ast.AST) -> list[ast.AST]:
    """Every node under ``roots``, nested def/lambda bodies excluded."""
    result: list[ast.AST] = []
    stack: list[ast.AST] = list(roots)
    while stack:
        node = stack.pop()
        result.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return result


def _contains_await(expr: ast.AST) -> bool:
    for node in _iter_subtree(expr):
        if isinstance(node, ast.Await):
            return True
    return False


def _load_names(expr: ast.AST) -> tuple[str, ...]:
    """Sorted distinct names read inside ``expr``."""
    names: set[str] = set()
    for node in _iter_subtree(expr):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
    return tuple(sorted(names))


def _attr_reads(
    expr: ast.AST, tracked: frozenset[str]
) -> list[tuple[str, str, int]]:
    """``(receiver, attr, lineno)`` for tracked attribute reads in ``expr``."""
    reads: list[tuple[str, str, int]] = []
    for node in _iter_subtree(expr):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in tracked
        ):
            reads.append((node.value.id, node.attr, node.lineno))
    return reads


def _base_attr(target: ast.expr, tracked: frozenset[str]) -> Optional[tuple[str, str]]:
    """``(receiver, first attr)`` of an attribute/subscript chain target."""
    node = target
    last_attr: Optional[str] = None
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute):
            last_attr = node.attr
        node = node.value
    if isinstance(node, ast.Name) and node.id in tracked and last_attr is not None:
        return node.id, last_attr
    return None


def _receiver_repr(expr: ast.expr) -> str:
    """Dotted rendering of a Name/Attribute chain (best effort)."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _name_hints(repr_: str, hints: tuple[str, ...]) -> bool:
    tail = repr_.rsplit(".", 1)[-1].lower()
    return any(hint in tail for hint in hints)


def _blocking_call(node: ast.Call) -> Optional[str]:
    """The detail string when ``node`` is a direct blocking call."""
    func = node.func
    if isinstance(func, ast.Name):
        kinds = BUILTIN_CALLS.get(func.id)
        if kinds is not None and "blocking" in kinds:
            return f"{func.id}()"
        return None
    if isinstance(func, ast.Attribute):
        if func.attr in FILE_IO_ATTRS:
            return f".{func.attr}()"
        value = func.value
        qualifier = (
            value.id
            if isinstance(value, ast.Name)
            else value.attr if isinstance(value, ast.Attribute) else None
        )
        if qualifier is not None and (qualifier, func.attr) in BLOCKING_CALLS:
            return f"{qualifier}.{func.attr}()"
    return None


def _handler_reraises(handler: ast.excepthandler) -> bool:
    """True when the handler body re-raises (bare or the caught name)."""
    for node in _iter_subtree(*handler.body):
        if isinstance(node, ast.Raise):
            if node.exc is None:
                return True
            if (
                isinstance(node.exc, ast.Name)
                and handler.name is not None
                and node.exc.id == handler.name
            ):
                return True
    return False


def _except_kind(handler: ast.excepthandler) -> Optional[str]:
    """``bare``/``base``/``cancelled`` for risky handlers, else None."""
    if handler.type is None:
        return "bare"
    exprs: list[ast.expr] = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    kinds = {annotation_name(expr) for expr in exprs}
    if "BaseException" in kinds:
        return "base"
    if "CancelledError" in kinds:
        return "cancelled"
    return None


#: Stack-entry tags for the segment walk.
_NODE = 0
_AWAIT_END = 1
_ASSIGN_END = 2
_CLEANUP_BEGIN = 3
_CLEANUP_END = 4
_REGION_END = 5

_AssignLike = Union[ast.Assign, ast.AnnAssign, ast.AugAssign]


class _Scan:
    """Mutable state of one function-body segment walk."""

    def __init__(self, tracked: frozenset[str]) -> None:
        self.tracked = tracked
        self.segment = 0
        self.cleanup_depth = 0
        self.regions: list[str] = []
        self.events: list[AttrEvent] = []
        self.excepts: list[ExceptSite] = []
        self.held: list[HeldSite] = []
        self.await_count = 0
        #: ``(receiver repr, lineno)`` of awaited ``.get()`` calls.
        self.queue_gets: list[tuple[str, int]] = []
        #: ``receiver repr -> first task_done() lineno``.
        self.task_dones: dict[str, int] = {}
        #: every risky site anywhere: ``(kind, detail, lineno)``.
        self.risky: list[tuple[str, str, int]] = []
        #: awaited ``.acquire()`` receivers and linenos.
        self.acquired: list[tuple[str, int]] = []
        #: receivers released inside some ``finally`` body.
        self.released_in_finally: set[str] = set()


def _emit_risky(scan: _Scan, kind: str, detail: str, lineno: int) -> None:
    scan.risky.append((kind, detail, lineno))
    if len(scan.regions) > 0:
        scan.held.append(HeldSite(scan.regions[-1], kind, detail, lineno))


def _enter_call(scan: _Scan, node: ast.Call) -> None:
    detail = _blocking_call(node)
    if detail is not None:
        _emit_risky(scan, "blocking", detail, node.lineno)
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr == "task_done":
            repr_ = _receiver_repr(func.value)
            scan.task_dones.setdefault(repr_, node.lineno)
        if func.attr in MUTATING_METHODS:
            base = _base_attr(func.value, scan.tracked)
            if base is not None:
                scan.events.append(
                    AttrEvent(
                        "mutate",
                        base[0],
                        base[1],
                        scan.segment,
                        node.lineno,
                        in_cleanup=scan.cleanup_depth > 0,
                    )
                )


def _enter_await(scan: _Scan, node: ast.Await) -> None:
    value = node.value
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
        attr = value.func.attr
        if attr in UNBOUNDED_AWAIT_ATTRS:
            repr_ = _receiver_repr(value.func.value)
            _emit_risky(
                scan, "unbounded-await", f"{repr_ or '<recv>'}.{attr}()", node.lineno
            )
            if attr == "get" and _name_hints(repr_, QUEUE_NAME_HINTS):
                scan.queue_gets.append((repr_, node.lineno))
            if attr == "acquire":
                scan.acquired.append((repr_, node.lineno))


def _enter_guard(scan: _Scan, test: ast.expr) -> None:
    for receiver, attr, lineno in _attr_reads(test, scan.tracked):
        scan.events.append(
            AttrEvent("guard", receiver, attr, scan.segment, lineno)
        )


def _assign_end(scan: _Scan, node: _AssignLike) -> None:
    """Emit write/alias/rmw events once a statement's value has run."""
    in_cleanup = scan.cleanup_depth > 0
    if isinstance(node, ast.Assign):
        targets: list[ast.expr] = list(node.targets)
    else:
        targets = [node.target]
    value = node.value
    uses = _load_names(value) if value is not None else ()
    value_reads = (
        {(r, a) for r, a, _ in _attr_reads(value, scan.tracked)}
        if value is not None
        else set()
    )
    awaited_value = value is not None and _contains_await(value)
    flat: list[ast.expr] = []
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            flat.extend(target.elts)
        else:
            flat.append(target)
    for target in flat:
        base = _base_attr(target, scan.tracked)
        if base is None:
            continue
        receiver, attr = base
        if isinstance(node, ast.AugAssign) or (receiver, attr) in value_reads:
            if awaited_value:
                scan.events.append(
                    AttrEvent(
                        "rmw",
                        receiver,
                        attr,
                        scan.segment,
                        node.lineno,
                        in_cleanup=in_cleanup,
                    )
                )
        scan.events.append(
            AttrEvent(
                "write",
                receiver,
                attr,
                scan.segment,
                node.lineno,
                uses=uses,
                in_cleanup=in_cleanup,
            )
        )
    # The alias form: a *local* name capturing exactly ``recv.attr``.
    if (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(value, ast.Attribute)
        and isinstance(value.value, ast.Name)
        and value.value.id in scan.tracked
    ):
        scan.events.append(
            AttrEvent(
                "alias",
                value.value.id,
                value.attr,
                scan.segment,
                node.lineno,
                alias=node.targets[0].id,
            )
        )


def _lock_region_name(node: "ast.With | ast.AsyncWith") -> Optional[str]:
    for item in node.items:
        expr = item.context_expr
        repr_ = _receiver_repr(expr)
        if repr_ and _name_hints(repr_, LOCK_NAME_HINTS):
            keyword = "async with" if isinstance(node, ast.AsyncWith) else "with"
            return f"{keyword} {repr_}"
    return None


def _push_children(
    stack: list[tuple[int, object]], children: Sequence[ast.AST]
) -> None:
    for child in reversed(list(children)):
        stack.append((_NODE, child))


def _scan_function(func: FunctionInfo) -> _Scan:
    """One execution-ordered walk of ``func``'s body."""
    scan = _Scan(_tracked_receivers(func))
    stack: list[tuple[int, object]] = []
    _push_children(stack, func.node.body)
    while stack:
        tag, payload = stack.pop()
        if tag == _AWAIT_END:
            scan.segment += 1
            scan.await_count += 1
            continue
        if tag == _ASSIGN_END:
            assert isinstance(payload, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            _assign_end(scan, payload)
            continue
        if tag == _CLEANUP_BEGIN:
            scan.cleanup_depth += 1
            continue
        if tag == _CLEANUP_END:
            scan.cleanup_depth -= 1
            continue
        if tag == _REGION_END:
            scan.regions.pop()
            continue
        node = payload
        assert isinstance(node, ast.AST)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _push_children(stack, node.decorator_list)
            continue
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Await):
            stack.append((_AWAIT_END, None))
            _push_children(stack, list(ast.iter_child_nodes(node)))
            _enter_await(scan, node)
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            stack.append((_ASSIGN_END, node))
            ordered: list[ast.AST] = []
            if isinstance(node, ast.AugAssign):
                ordered = [node.value]
            else:
                if node.value is not None:
                    ordered.append(node.value)
            _push_children(stack, ordered)
            continue
        if isinstance(node, ast.Try):
            # Handlers and finally are cleanup scopes: writes there are
            # compensation, not claims (REPRO018 skips them).
            stack.append((_CLEANUP_END, None))
            _push_children(stack, node.finalbody)
            stack.append((_CLEANUP_BEGIN, None))
            _push_children(stack, node.orelse)
            stack.append((_CLEANUP_END, None))
            _push_children(stack, node.handlers)
            stack.append((_CLEANUP_BEGIN, None))
            _push_children(stack, node.body)
            for handler in node.handlers:
                kind = _except_kind(handler)
                if kind is not None:
                    scan.excepts.append(
                        ExceptSite(kind, handler.lineno, _handler_reraises(handler))
                    )
            for stmt in _iter_subtree(*node.finalbody):
                if (
                    isinstance(stmt, ast.Call)
                    and isinstance(stmt.func, ast.Attribute)
                    and stmt.func.attr == "release"
                ):
                    scan.released_in_finally.add(_receiver_repr(stmt.func.value))
            continue
        if isinstance(node, (ast.If, ast.While)):
            _enter_guard(scan, node.test)
            _push_children(stack, list(ast.iter_child_nodes(node)))
            continue
        if isinstance(node, (ast.With, ast.AsyncWith)):
            if isinstance(node, ast.AsyncWith):
                scan.segment += 1
                scan.await_count += 1
            region = _lock_region_name(node)
            if region is not None:
                stack.append((_REGION_END, None))
                _push_children(stack, node.body)
                scan.regions.append(region)
                _push_children(stack, node.items)
            else:
                _push_children(stack, list(ast.iter_child_nodes(node)))
            continue
        if isinstance(node, ast.AsyncFor):
            scan.segment += 1
            scan.await_count += 1
            _push_children(stack, list(ast.iter_child_nodes(node)))
            continue
        if isinstance(node, ast.Delete):
            for target in node.targets:
                base = _base_attr(target, scan.tracked)
                if base is not None:
                    scan.events.append(
                        AttrEvent(
                            "write",
                            base[0],
                            base[1],
                            scan.segment,
                            node.lineno,
                            in_cleanup=scan.cleanup_depth > 0,
                        )
                    )
            continue
        if isinstance(node, ast.Call):
            _enter_call(scan, node)
        _push_children(stack, list(ast.iter_child_nodes(node)))
    return scan


def _consumer_windows(scan: _Scan) -> list[HeldSite]:
    """Risky sites between ``await q.get()`` and ``q.task_done()``."""
    held: list[HeldSite] = []
    for repr_, get_line in scan.queue_gets:
        done_line = scan.task_dones.get(repr_)
        if done_line is None or done_line <= get_line:
            continue
        region = f"the {repr_} consumer window (get() .. task_done())"
        for kind, detail, lineno in scan.risky:
            if get_line < lineno < done_line:
                held.append(HeldSite(region, kind, detail, lineno))
    return held


def build_func_model(func: FunctionInfo) -> FuncModel:
    """The full interleave model of one function."""
    scan = _scan_function(func)
    held = list(scan.held) + _consumer_windows(scan)
    held.sort(key=lambda site: (site.lineno, site.kind, site.detail))
    acquires = tuple(
        AcquireSite(repr_, lineno, repr_ in scan.released_in_finally)
        for repr_, lineno in scan.acquired
    )
    return FuncModel(
        qualname=func.qualname,
        lineno=func.lineno,
        is_async=isinstance(func.node, ast.AsyncFunctionDef),
        events=tuple(scan.events),
        spawns=extract_spawns(func.node.body),
        excepts=tuple(scan.excepts),
        held=tuple(held),
        acquires=acquires,
        await_count=scan.await_count,
    )


def build_models(
    project: Project,
    cache: Optional[AnalysisCache] = None,
    source_digests: Optional[dict[str, str]] = None,
) -> dict[str, FuncModel]:
    """Per-function models for a whole project, content-cached per file.

    The model is file-local (no cross-file facts), so a cache entry is
    keyed purely on the file's content digest — warm entries stay
    correct no matter what changed elsewhere.
    """
    models: dict[str, FuncModel] = {}
    by_module: dict[str, list[FunctionInfo]] = {}
    for func in project.iter_functions():
        by_module.setdefault(func.module, []).append(func)
    for name in sorted(project.modules):
        key = ""
        if (
            cache is not None
            and source_digests is not None
            and name in source_digests
        ):
            key = content_key(source_digests[name], "interleave", name)
            cached = cache.load("interleave", key)
            if isinstance(cached, dict):
                models.update(cached)
                continue
        built = {
            func.qualname: build_func_model(func)
            for func in by_module.get(name, [])
        }
        models.update(built)
        if cache is not None and key:
            cache.store("interleave", key, built)
    return models
