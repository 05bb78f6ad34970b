"""The effect model: sites, kinds, and per-scope direct extraction.

An :class:`EffectSite` is one concrete operation at one source line
that the concurrency rules care about. The lattice is a powerset over
``(kind, detail)`` pairs — joins are unions, so the interprocedural
propagation in :mod:`~repro.verify.effects.infer` is a plain monotone
fixpoint over the call-graph SCC condensation.

Effect kinds:

- ``blocking`` — suspends the calling thread: ``time.sleep``, file
  reads/writes, subprocess spawns, socket/url fetches, ``input``.
  These stall an event loop when reached from ``async def`` code.
- ``clock`` — reads real time (``time.time``, ``time.perf_counter``,
  ``datetime.now`` …). Replayable code takes an injected clock
  callable instead; a *reference* used as a parameter default
  (``clock: Clock = time.perf_counter``) is the blessed seam and is
  not a call, so it never registers.
- ``rng`` — draws from the process-global ``random`` module or builds
  an unseeded ``random.Random()``. The blessed idiom threads a seeded
  ``rng: random.Random`` parameter; calls through such a parameter are
  attribute calls on a local name and never match.
- ``io`` — touches the outside world (files, stdout, processes,
  network). A superset marker used by the snapshot-purity rule.
- ``global-write`` — rebinds or mutates a module-level name, directly
  (``global X; X = ...``, ``REGISTRY[k] = v``, ``CACHE.append(...)``)
  or through an imported module-level binding.

Extraction is deliberately *name-based and conservative*, matching the
flow rules' design pressure: a receiver that is locally bound shadows
the module match, unknown shapes produce no sites, and the rules err
toward silence.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Optional

from repro.verify.flow.callgraph import MUTATING_METHODS
from repro.verify.flow.project import ModuleInfo, Scope, local_names

#: Effect kinds, in severity/report order.
KINDS: tuple[str, ...] = ("blocking", "clock", "rng", "io", "global-write")

#: ``(qualifier, attribute)`` pairs that read a real clock when called.
CLOCK_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "process_time"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: ``(qualifier, attribute)`` pairs that block the calling thread.
BLOCKING_CALLS = frozenset(
    {
        ("time", "sleep"),
        ("subprocess", "run"),
        ("subprocess", "call"),
        ("subprocess", "check_call"),
        ("subprocess", "check_output"),
        ("subprocess", "Popen"),
        ("os", "system"),
        ("os", "popen"),
        ("socket", "create_connection"),
        ("request", "urlopen"),  # urllib.request.urlopen
        ("requests", "get"),
        ("requests", "post"),
        ("requests", "put"),
        ("requests", "delete"),
        ("requests", "head"),
        ("requests", "request"),
    }
)

#: Attribute names that perform file IO on any receiver (``Path`` and
#: path-like APIs); both ``io`` and ``blocking``.
FILE_IO_ATTRS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: Bare built-in calls: name -> kinds emitted.
BUILTIN_CALLS: dict[str, tuple[str, ...]] = {
    "open": ("io", "blocking"),
    "input": ("blocking",),
    "print": ("io",),
}

#: Constructor names whose result is a mutable container.
MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "defaultdict", "deque", "OrderedDict", "Counter"}
)


@dataclass(frozen=True)
class EffectSite:
    """One concrete effect occurrence inside one scope."""

    kind: str  #: one of :data:`KINDS`
    detail: str  #: e.g. ``time.sleep`` or ``repro.x.REGISTRY``
    lineno: int

    def describe(self) -> str:
        return f"{self.detail} ({self.kind})"


@dataclass(frozen=True)
class GlobalBinding:
    """One module-level name binding (the tenant-escape rule's subject)."""

    module: str
    name: str
    lineno: int
    mutable: bool

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"


def module_bindings(module: ModuleInfo) -> dict[str, GlobalBinding]:
    """Module-level data bindings of one module, by bare name.

    Class and function statements are not data bindings; only
    assignments count, and the first one wins (re-binds at module level
    keep the original line as the anchor).
    """
    bindings: dict[str, GlobalBinding] = {}
    for stmt in module.tree.body:
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id not in bindings:
                bindings[target.id] = GlobalBinding(
                    module.name,
                    target.id,
                    stmt.lineno,
                    _is_mutable_value(value),
                )
    return bindings


def _is_mutable_value(value: Optional[ast.expr]) -> bool:
    """True when the bound value is a mutable container, syntactically."""
    if isinstance(
        value,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        return name in MUTABLE_FACTORIES
    return False


def _qualifier_name(func: ast.expr) -> Optional[tuple[str, str]]:
    """``(qualifier, attribute)`` of an attribute call target, if simple."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Name):
        return value.id, func.attr
    if isinstance(value, ast.Attribute):
        return value.attr, func.attr
    return None


def _global_target(
    name: str,
    module: ModuleInfo,
    bindings: dict[str, dict[str, GlobalBinding]],
) -> Optional[GlobalBinding]:
    """The module-level binding a bare name refers to, if any.

    Looks in this module first, then through ``from x import NAME``
    imports into other project modules' top-level bindings.
    """
    own = bindings.get(module.name, {})
    if name in own:
        return own[name]
    imported = module.imports.get(name)
    if imported is not None and "." in imported:
        target_module, target_name = imported.rsplit(".", 1)
        other = bindings.get(target_module)
        if other is not None and target_name in other:
            return other[target_name]
    return None


def direct_effects(
    scope: Scope, bindings: dict[str, dict[str, GlobalBinding]]
) -> tuple[EffectSite, ...]:
    """Every direct effect site in one scope (function or module body).

    Nested defs/lambdas are scopes of their own (``walk_scope``); their
    effects are attributed to them, not to the enclosing scope.
    """
    module = scope.module
    # Locals shadow the module tables (a parameter called ``random``, a
    # local ``time = ...``); names declared ``global`` stay global writes.
    locals_, declared_global = local_names(scope.nodes, scope.args)
    sites: list[EffectSite] = []

    def emit(kind: str, detail: str, lineno: int) -> None:
        sites.append(EffectSite(kind, detail, lineno))

    for node in scope.nodes:
        if isinstance(node, ast.Call):
            _call_effects(node, module, locals_, bindings, emit)
            continue
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            _target_effects(
                target, module, locals_, declared_global, bindings, emit
            )
    return tuple(sites)


def _call_effects(
    node: ast.Call,
    module: ModuleInfo,
    locals_: frozenset[str],
    bindings: dict[str, dict[str, GlobalBinding]],
    emit,
) -> None:
    func = node.func
    if isinstance(func, ast.Name):
        kinds = BUILTIN_CALLS.get(func.id)
        if kinds is not None and func.id not in locals_:
            for kind in kinds:
                emit(kind, f"{func.id}()", node.lineno)
        return
    pair = _qualifier_name(func)
    if pair is None:
        return
    qualifier, attr = pair
    shadowed = qualifier in locals_
    if not shadowed:
        if pair in CLOCK_CALLS:
            emit("clock", f"{qualifier}.{attr}()", node.lineno)
        if pair in BLOCKING_CALLS:
            emit("blocking", f"{qualifier}.{attr}()", node.lineno)
            if qualifier != "time":  # subprocess/sockets/urls also do IO
                emit("io", f"{qualifier}.{attr}()", node.lineno)
        if qualifier == "random" and isinstance(func.value, ast.Name):
            if attr == "Random":
                if len(node.args) == 0 and len(node.keywords) == 0:
                    emit("rng", "random.Random()", node.lineno)
            elif attr == "SystemRandom":
                emit("rng", "random.SystemRandom()", node.lineno)
            else:
                emit("rng", f"random.{attr}()", node.lineno)
    if attr in FILE_IO_ATTRS:
        emit("io", f".{attr}()", node.lineno)
        emit("blocking", f".{attr}()", node.lineno)
    # Mutation of a module-level container through a method call.
    if attr in MUTATING_METHODS and isinstance(func.value, ast.Name):
        name = func.value.id
        if name not in locals_:
            binding = _global_target(name, module, bindings)
            if binding is not None and binding.mutable:
                emit("global-write", binding.qualname, node.lineno)


def _target_effects(
    target: ast.expr,
    module: ModuleInfo,
    locals_: frozenset[str],
    declared_global: frozenset[str],
    bindings: dict[str, dict[str, GlobalBinding]],
    emit,
) -> None:
    """Global-write sites from one assignment/del target."""
    if isinstance(target, ast.Name):
        if target.id in declared_global:
            own = bindings.get(module.name, {})
            binding = own.get(target.id)
            qual = (
                binding.qualname
                if binding is not None
                else f"{module.name}.{target.id}"
            )
            emit("global-write", qual, target.lineno)
        return
    # Subscript/attribute stores: find the base name.
    base = target
    while isinstance(base, (ast.Attribute, ast.Subscript)):
        base = base.value
    if not isinstance(base, ast.Name) or base.id in locals_:
        return
    binding = _global_target(base.id, module, bindings)
    if binding is not None and binding.mutable:
        emit("global-write", binding.qualname, target.lineno)
