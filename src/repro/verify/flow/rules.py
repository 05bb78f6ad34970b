"""The interprocedural rule set, REPRO007 through REPRO012.

Each rule is a plain function from
:class:`~repro.verify.context.RuleContext` to findings; :data:`SPECS`
at the bottom joins the registry in :mod:`repro.verify.engine`. All
rules share one design pressure: on *ambiguity they stay silent*.
Unresolvable calls, untyped receivers, and unknown protocols produce
no findings — a whole-program checker that cries wolf gets suppressed
wholesale, which is worse than one that under-reports.

How to add a rule: see "Adding a rule" in ``docs/VERIFICATION.md``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro.verify.context import RuleContext, RuleSpec
from repro.verify.findings import Finding
from repro.verify.flow.callgraph import resolve_call
from repro.verify.flow.cfg import CFG, build_cfg
from repro.verify.flow.dataflow import (
    forward_fixpoint,
    header_exprs,
    live_after,
    liveness,
)
from repro.verify.flow.project import (
    FunctionInfo,
    Project,
    Scope,
    annotation_name,
    local_names,
    walk_scope,
)


def _stmt_calls(stmt: ast.stmt) -> list[ast.Call]:
    """Call expressions a block statement evaluates itself (header-only
    for compound statements, whose bodies are separate blocks)."""
    headers = header_exprs(stmt)
    roots: list[ast.AST] = list(headers) if headers else [stmt]
    calls: list[ast.Call] = []
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                calls.append(node)
    return calls


# -- REPRO007: recursion cycles, call-graph and lexical -----------------

_DefNode = ast.FunctionDef | ast.AsyncFunctionDef
_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = (*_DEF_NODES, ast.Lambda, ast.ClassDef)


@dataclass(frozen=True)
class _Frame:
    """One lexical scope enclosing a call: a def, lambda, or class body."""

    node: ast.AST
    bound: frozenset[str]
    #: The names a def statement in this scope binds, to that def.
    defs: dict[str, _DefNode]
    #: A def directly in a class body.
    method: bool


def _frame(node: ast.AST, nodes: Sequence[ast.AST], method: bool) -> _Frame:
    args = node.args if isinstance(node, (*_DEF_NODES, ast.Lambda)) else None
    defs: dict[str, _DefNode] = {}
    for child in nodes:
        if isinstance(child, _DEF_NODES):
            defs.setdefault(child.name, child)
    return _Frame(node, local_names(nodes, args)[0], defs, method)


def _recursive_target(
    call: ast.Call, frames: list[_Frame], func: FunctionInfo
) -> Optional[_DefNode]:
    """The enclosing def that a call inside a nested scope re-enters.

    A bare name resolves lexically (a class body is invisible to the
    functions inside it, as in Python); ``self.<m>()`` re-enters the
    method ``m`` whose ``self`` it is.
    """
    target = call.func
    if isinstance(target, ast.Name):
        for frame in reversed(frames):
            if frame is not frames[-1] and isinstance(frame.node, ast.ClassDef):
                continue
            if target.id in frame.bound:
                hit = frame.defs.get(target.id)
                return hit if any(hit is other.node for other in frames) else None
        return func.node if func.cls is None and target.id == func.name else None
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        owner = next(
            (
                frame
                for frame in reversed(frames)
                if not isinstance(frame.node, ast.ClassDef) and "self" in frame.bound
            ),
            None,
        )
        if owner is not None and owner.method:
            node = owner.node
            if isinstance(node, _DEF_NODES) and node.name == target.attr:
                return node
    return None


def _nested_recursion(func: FunctionInfo) -> list[_DefNode]:
    """Enclosing defs that a nested def, lambda or class of ``func``
    calls.

    The call graph indexes module-level functions and methods only, so
    recursion inside a nested helper (the usual shape of a recursive
    walker) never becomes an edge; this lexical check covers it.
    """
    found: list[_DefNode] = []
    root = _frame(func.node, func.scope.nodes, func.cls is not None)
    stack: list[tuple[ast.AST, list[_Frame]]] = [
        (node, [root])
        for node in reversed(func.scope.nodes)
        if isinstance(node, _SCOPE_NODES)
    ]
    while stack:
        node, outer = stack.pop()
        body = [node.body] if isinstance(node, ast.Lambda) else node.body
        nodes = walk_scope(body)
        method = isinstance(outer[-1].node, ast.ClassDef)
        frames = outer + [_frame(node, nodes, method)]
        for child in nodes:
            if isinstance(child, ast.Call):
                hit = _recursive_target(child, frames, func)
                if hit is not None and not any(hit is seen for seen in found):
                    found.append(hit)
            elif isinstance(child, _SCOPE_NODES):
                stack.append((child, frames))
    return found


def _rule_recursion(ctx: RuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for component in ctx.graph.cycles():
        anchor = component[0]
        func = ctx.project.functions.get(anchor)
        if func is None:
            continue
        if len(component) == 1:
            message = (
                f"{anchor} is recursive (direct or via itself); "
                "convert to an explicit worklist (IPv6 depth overflows "
                "recursion)"
            )
        else:
            chain = " -> ".join(component + [component[0]])
            message = (
                f"recursion cycle {chain}; break the cycle with an "
                "explicit worklist"
            )
        findings.append(
            Finding("REPRO007", ctx.rel(func.path), func.lineno, anchor, message)
        )
    for qualname in sorted(ctx.project.functions):
        func = ctx.project.functions[qualname]
        for target in _nested_recursion(func):
            how = (
                "calls itself from a nested scope"
                if target is func.node
                else f"recurses through its nested def {target.name}()"
            )
            findings.append(
                Finding(
                    "REPRO007",
                    ctx.rel(func.path),
                    func.lineno,
                    qualname,
                    f"{qualname} {how}; convert to an explicit worklist "
                    "(IPv6 depth overflows recursion)",
                )
            )
    return findings


# -- REPRO008: dropped @must_consume results ----------------------------


def _rule_dropped_delta(ctx: RuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for scope in ctx.project.iter_scopes():
        cfg = build_cfg(scope.body)
        live_out: Optional[dict[int, frozenset[str]]] = None
        for block in cfg.blocks:
            for index, stmt in enumerate(block.stmts):
                call: Optional[ast.Call] = None
                names: frozenset[str] = frozenset()
                if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                    call = stmt.value
                elif isinstance(stmt, ast.Assign) and isinstance(
                    stmt.value, ast.Call
                ):
                    if not all(isinstance(t, ast.Name) for t in stmt.targets):
                        continue  # attribute/subscript targets escape the scope
                    call = stmt.value
                    names = frozenset(
                        t.id for t in stmt.targets if isinstance(t, ast.Name)
                    )
                elif (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.value, ast.Call)
                    and isinstance(stmt.target, ast.Name)
                ):
                    call = stmt.value
                    names = frozenset({stmt.target.id})
                if call is None:
                    continue
                callee = resolve_call(ctx.project, scope.module, scope.env, call)
                if callee is None or "must_consume" not in callee.decorators:
                    continue
                if len(names) == 0:
                    findings.append(
                        Finding(
                            "REPRO008",
                            ctx.rel(scope.path),
                            call.lineno,
                            scope.symbol,
                            f"return value of {callee.qualname} is discarded; "
                            "the FIB delta must be consumed (use the "
                            "rebuild/discard wrapper for intentional drops)",
                        )
                    )
                    continue
                if live_out is None:
                    _, live_out = liveness(cfg)
                alive = live_after(cfg, live_out, block.id, index)
                if not names & alive:
                    joined = ", ".join(sorted(names))
                    findings.append(
                        Finding(
                            "REPRO008",
                            ctx.rel(scope.path),
                            call.lineno,
                            scope.symbol,
                            f"{joined} binds the @must_consume result of "
                            f"{callee.qualname} but is never read afterwards",
                        )
                    )
    return findings


# -- REPRO009: trie mutation during a live traversal --------------------

#: Method names that (by convention) return lazy traversals of their
#: receiver. Resolved callees marked as generators are recognised too.
GENERATOR_NAMES = frozenset(
    {"iter_nodes", "ot_entries", "at_entries", "entries", "walk", "iter_prefixes"}
)

#: Method names that (by convention) mutate their receiver. Resolved
#: callees in the call graph's transitive self-mutator summary count too.
MUTATOR_NAMES = frozenset(
    {
        "set_ot",
        "set_at",
        "set_at_node",
        "set_pi",
        "ensure",
        "prune",
        "insert",
        "delete",
        "load",
        "apply_batch",
        "snapshot",
        "rebuild",
    }
)


def _receiver_token(
    expr: ast.expr, aliases: dict[str, tuple[str, ...]]
) -> Optional[tuple[str, ...]]:
    """Canonical receiver identity: attribute chain rooted at a name,
    with local aliases (``trie = self.trie``) expanded."""
    attrs: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id, (node.id,))
    return base + tuple(reversed(attrs))


def _scope_aliases(scope: Scope) -> dict[str, tuple[str, ...]]:
    """Local aliases of attribute chains, e.g. ``trie = self.trie``."""
    aliases: dict[str, tuple[str, ...]] = {}
    for node in scope.nodes:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, (ast.Attribute, ast.Name))
        ):
            token = _receiver_token(node.value, aliases)
            if token is not None:
                aliases.setdefault(node.targets[0].id, token)
    return aliases


def _tokens_overlap(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
    return longer[: len(shorter)] == shorter


def _rule_mutating_traversal(ctx: RuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for scope in ctx.project.iter_scopes():
        env = scope.env
        aliases = _scope_aliases(scope)
        for node in scope.nodes:
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            source = node.iter
            if not isinstance(source, ast.Call) or not isinstance(
                source.func, ast.Attribute
            ):
                continue  # wrapped iterations (list(...)) are materialised
            gen_name = source.func.attr
            resolved_gen = resolve_call(ctx.project, scope.module, env, source)
            is_traversal = gen_name in GENERATOR_NAMES or (
                resolved_gen is not None and resolved_gen.is_generator
            )
            if not is_traversal:
                continue
            gen_token = _receiver_token(source.func.value, aliases)
            if gen_token is None:
                continue
            loop_nodes: list[ast.AST] = []
            for stmt in list(node.body) + list(node.orelse):
                loop_nodes.extend(walk_scope([stmt]))
            for inner in loop_nodes:
                if not isinstance(inner, ast.Call) or not isinstance(
                    inner.func, ast.Attribute
                ):
                    continue
                token = _receiver_token(inner.func.value, aliases)
                if token is None or not _tokens_overlap(token, gen_token):
                    continue
                resolved_mut = resolve_call(ctx.project, scope.module, env, inner)
                is_mutator = inner.func.attr in MUTATOR_NAMES or (
                    resolved_mut is not None
                    and resolved_mut.qualname in ctx.graph.self_mutators
                )
                if not is_mutator:
                    continue
                findings.append(
                    Finding(
                        "REPRO009",
                        ctx.rel(scope.path),
                        inner.lineno,
                        scope.symbol,
                        f"{'.'.join(token)}.{inner.func.attr}() mutates the "
                        f"structure while the traversal "
                        f"{'.'.join(gen_token)}.{gen_name}() (line "
                        f"{node.lineno}) is still live; materialise with "
                        "list(...) first",
                    )
                )
    return findings


# -- REPRO010: typestate protocols --------------------------------------


@dataclass(frozen=True)
class Protocol:
    """A small method-call DFA for one class."""

    cls_name: str
    initial: str
    watched: frozenset[str]
    transitions: dict[tuple[str, str], str]
    hint: str


PROTOCOLS: dict[str, Protocol] = {
    "SmaltaState": Protocol(
        cls_name="SmaltaState",
        initial="fresh",
        watched=frozenset(
            {"load", "insert", "delete", "apply_batch", "snapshot", "rebuild"}
        ),
        transitions={
            ("fresh", "load"): "live",
            ("fresh", "insert"): "live",
            ("fresh", "delete"): "live",
            ("fresh", "apply_batch"): "live",
            ("fresh", "snapshot"): "live",
            ("fresh", "rebuild"): "live",
            ("live", "insert"): "live",
            ("live", "delete"): "live",
            ("live", "apply_batch"): "live",
            ("live", "snapshot"): "live",
            ("live", "rebuild"): "live",
        },
        hint="load() clobbers a live trie; build a fresh SmaltaState instead",
    ),
    "DownloadChannel": Protocol(
        cls_name="DownloadChannel",
        initial="open",
        watched=frozenset({"send", "flush", "resync", "close"}),
        transitions={
            ("open", "send"): "open",
            ("open", "flush"): "open",
            ("open", "resync"): "open",
            ("open", "close"): "closed",
        },
        hint="the channel was close()d earlier on this path",
    ),
}

_TypeState = tuple[tuple[str, frozenset[str]], ...]


def _constructed_protocol_vars(
    ctx: RuleContext, scope: Scope
) -> dict[str, Protocol]:
    """Locals bound by a visible protocol-class constructor call."""
    tracked: dict[str, Protocol] = {}
    for node in scope.nodes:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            cls_name = annotation_name(node.value.func)
            if cls_name in PROTOCOLS:
                resolved = ctx.project.resolve_class_name(scope.module, cls_name)
                if resolved is not None and resolved.rsplit(".", 1)[-1] == cls_name:
                    tracked[node.targets[0].id] = PROTOCOLS[cls_name]
    return tracked


def _typestate_transfer(
    cfg: CFG,
    block_id: int,
    state: _TypeState,
    tracked: dict[str, Protocol],
    collect: Optional[list[tuple[str, str, int, frozenset[str]]]],
) -> _TypeState:
    current: dict[str, frozenset[str]] = dict(state)
    for stmt in cfg.blocks[block_id].stmts:
        constructed: Optional[str] = None
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id in tracked
        ):
            constructed = stmt.targets[0].id
        for call in _stmt_calls(stmt):
            func = call.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
            ):
                continue
            var = func.value.id
            protocol = tracked.get(var)
            if protocol is None or func.attr not in protocol.watched:
                continue
            states = current.get(var)
            if states is None:
                continue  # not yet constructed on this path
            moved = {
                protocol.transitions[(s, func.attr)]
                for s in states
                if (s, func.attr) in protocol.transitions
            }
            if not moved and len(states) > 0 and collect is not None:
                collect.append((var, func.attr, call.lineno, states))
            current[var] = frozenset(moved) if moved else states
        if constructed is not None:
            value = stmt.value if isinstance(stmt, ast.Assign) else None
            protocol = tracked[constructed]
            if isinstance(value, ast.Call):
                cls_name = annotation_name(value.func)
                if cls_name == protocol.cls_name:
                    current[constructed] = frozenset({protocol.initial})
                else:
                    current.pop(constructed, None)
            else:
                current.pop(constructed, None)
    return tuple(sorted(current.items()))


def _join_typestates(states: list[_TypeState]) -> Optional[_TypeState]:
    merged: dict[str, frozenset[str]] = {}
    for state in states:
        for var, values in state:
            merged[var] = merged.get(var, frozenset()) | values
    return tuple(sorted(merged.items()))


def _rule_typestate(ctx: RuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for scope in ctx.project.iter_scopes():
        tracked = _constructed_protocol_vars(ctx, scope)
        if len(tracked) == 0:
            continue
        cfg = build_cfg(scope.body)
        in_states = forward_fixpoint(
            cfg,
            (),
            lambda b, s: _typestate_transfer(cfg, b, s, tracked, None),
            _join_typestates,
        )
        hits: list[tuple[str, str, int, frozenset[str]]] = []
        for block in cfg.blocks:
            _typestate_transfer(cfg, block.id, in_states[block.id], tracked, hits)
        seen: set[tuple[str, str, int]] = set()
        for var, method, lineno, states in hits:
            key = (var, method, lineno)
            if key in seen:
                continue
            seen.add(key)
            protocol = tracked[var]
            findings.append(
                Finding(
                    "REPRO010",
                    ctx.rel(scope.path),
                    lineno,
                    scope.symbol,
                    f"{var}.{method}() violates the {protocol.cls_name} "
                    f"protocol in state(s) {sorted(states)}: {protocol.hint}",
                )
            )
    return findings


# -- REPRO011: swallowed failure signals --------------------------------

#: Exception classes whose silent disposal hides a correctness failure.
WATCHED_EXCEPTIONS = frozenset({"ReconcileError", "AuditError", "Violation"})

_LOG_OR_METRIC_ATTRS = frozenset(
    {
        "debug",
        "info",
        "warning",
        "error",
        "exception",
        "critical",
        "log",
        "inc",
        "dec",
        "set",
        "observe",
        "event",
        "emit",
    }
)


def _handler_exception_names(handler: ast.ExceptHandler) -> list[str]:
    if handler.type is None:
        return []
    types = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names: list[str] = []
    for node in types:
        name = annotation_name(node)
        if name is not None:
            names.append(name)
    return names


def _handler_disposes_properly(handler: ast.ExceptHandler) -> bool:
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "print":
                    return True
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _LOG_OR_METRIC_ATTRS
                ):
                    return True
            if (
                handler.name is not None
                and isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id == handler.name
            ):
                return True  # the exception object escapes (returned/stored)
    return False


def _rule_swallowed_failure(ctx: RuleContext) -> list[Finding]:
    findings: list[Finding] = []
    for scope in ctx.project.iter_scopes():
        for node in scope.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = _handler_exception_names(node)
            bare = node.type is None
            watched = [n for n in names if n in WATCHED_EXCEPTIONS]
            if not bare and len(watched) == 0:
                continue
            if _handler_disposes_properly(node):
                continue
            label = "bare except" if bare else f"except {'/'.join(watched)}"
            findings.append(
                Finding(
                    "REPRO011",
                    ctx.rel(scope.path),
                    node.lineno,
                    scope.symbol,
                    f"{label} swallows a correctness failure silently; "
                    "re-raise it, log it, or count it in a metric",
                )
            )
    return findings


# -- REPRO012: metric-name drift against the catalog docs ---------------

_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})
#: A catalog row's first cell: a backticked series name. Requiring an
#: underscore keeps ordinary backticked words in unrelated tables (the
#: fault-kind table in RESILIENCE.md says `drop`, `latency`, ...) from
#: being read as metric series.
_CATALOG_ROW_RE = re.compile(r"^`([A-Za-z][A-Za-z0-9]*_[A-Za-z0-9_]*)")


def _code_metric_names(project: Project) -> dict[str, tuple[Path, int]]:
    """Series registered with string literals, plus span histograms."""
    names: dict[str, tuple[Path, int]] = {}
    for module in project.modules.values():
        for node in module.all_nodes:
            if not isinstance(node, ast.Call) or len(node.args) == 0:
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue
            if node.func.attr in _METRIC_FACTORIES:
                names.setdefault(first.value, (module.path, node.lineno))
            elif node.func.attr == "span":
                names.setdefault(
                    f"{first.value}_seconds", (module.path, node.lineno)
                )
    return names


def _doc_metric_names(doc: Path) -> dict[str, int]:
    """Series named in the first cell of catalog table rows."""
    names: dict[str, int] = {}
    for lineno, line in enumerate(
        doc.read_text(encoding="utf-8").splitlines(), start=1
    ):
        stripped = line.strip()
        if not stripped.startswith("|"):
            continue
        cells = [cell.strip() for cell in stripped.strip("|").split("|")]
        if len(cells) == 0:
            continue
        match = _CATALOG_ROW_RE.match(cells[0])
        if match is not None:
            names.setdefault(match.group(1), lineno)
    return names


def _rule_metric_drift(ctx: RuleContext) -> list[Finding]:
    if len(ctx.metrics_docs) == 0:
        return []
    code_names = _code_metric_names(ctx.project)
    doc_names: dict[str, tuple[Path, int]] = {}
    for doc in ctx.metrics_docs:
        for name, lineno in _doc_metric_names(doc).items():
            doc_names.setdefault(name, (doc, lineno))
    findings: list[Finding] = []
    for name in sorted(set(code_names) - set(doc_names)):
        path, lineno = code_names[name]
        findings.append(
            Finding(
                "REPRO012",
                ctx.rel(path),
                lineno,
                name,
                f"metric series {name!r} is registered in code but missing "
                "from the catalog table(s) in "
                f"{', '.join(d.name for d in ctx.metrics_docs)}",
            )
        )
    # The reverse direction only makes sense when the scan actually
    # covers the instrumented packages (or the docs were given
    # explicitly, as the fixtures do).
    covers_code = ctx.explicit_docs or "repro.obs.registry" in ctx.project.modules
    if covers_code:
        for name in sorted(set(doc_names) - set(code_names)):
            doc, lineno = doc_names[name]
            findings.append(
                Finding(
                    "REPRO012",
                    ctx.rel(doc),
                    lineno,
                    name,
                    f"metric series {name!r} is cataloged in {doc.name} but "
                    "never registered in code",
                )
            )
    return findings


# -- registry ------------------------------------------------------------


SPECS: tuple[RuleSpec, ...] = (
    RuleSpec(
        "REPRO007",
        "recursion-cycle",
        "call-graph recursion cycle, or a nested def or lambda that "
        "re-enters an enclosing def; convert to an explicit worklist",
        _rule_recursion,
    ),
    RuleSpec(
        "REPRO008",
        "dropped-delta",
        "@must_consume return value discarded or bound but never read",
        _rule_dropped_delta,
    ),
    RuleSpec(
        "REPRO009",
        "mutating-traversal",
        "structure mutated while a lazy traversal of it is live",
        _rule_mutating_traversal,
    ),
    RuleSpec(
        "REPRO010",
        "typestate-protocol",
        "method call violates the receiver's lifecycle protocol",
        _rule_typestate,
    ),
    RuleSpec(
        "REPRO011",
        "swallowed-failure",
        "watched exception handled without re-raise, log, or metric",
        _rule_swallowed_failure,
    ),
    RuleSpec(
        "REPRO012",
        "metric-drift",
        "metric series and catalog docs disagree (either direction)",
        _rule_metric_drift,
    ),
)
