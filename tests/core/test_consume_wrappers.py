"""The explicit-discard wrappers introduced for flow rule REPRO008.

Call sites that only want a rebuilt table (not the download burst) go
through ``SmaltaState.rebuild`` / ``SmaltaManager.rebuild_at`` instead
of silently dropping the list a ``@must_consume`` producer returns.
These tests pin the wrappers' contracts.
"""

from __future__ import annotations

from repro.core.manager import SmaltaManager
from repro.core.smalta import SmaltaState
from repro.net.prefix import Prefix
from repro.net.update import RouteUpdate
from repro.verify.markers import must_consume

from tests.conftest import make_nexthops

NH = make_nexthops(4)
A, B = NH[0], NH[1]


def bp(bits: str) -> Prefix:
    return Prefix.from_bits(bits, width=8)


class TestStateRebuild:
    def test_rebuild_returns_burst_size(self) -> None:
        state = SmaltaState(8)
        state.load(bp("10"), A)
        state.load(bp("11"), A)
        reference = SmaltaState(8)
        reference.load(bp("10"), A)
        reference.load(bp("11"), A)
        assert state.rebuild() == len(reference.snapshot())

    def test_rebuild_leaves_state_consistent(self) -> None:
        state = SmaltaState(8)
        state.load(bp("10"), A)
        state.load(bp("0"), B)
        state.rebuild()
        state.verify()  # raises on any trie-invariant breach

    def test_rebuild_forwards_flags(self) -> None:
        state = SmaltaState(8)
        state.load(bp("10"), A)
        size = state.rebuild(count=False)
        assert size >= 0
        state.verify()


class TestManagerRebuildAt:
    def _loaded(self) -> SmaltaManager:
        manager = SmaltaManager(width=8)
        manager.end_of_rib()
        manager.apply(RouteUpdate.announce(bp("10"), A))
        manager.apply(RouteUpdate.announce(bp("11"), A))
        return manager

    def test_returns_burst_size_without_recording(self) -> None:
        manager = self._loaded()
        snapshots_before = manager.log.snapshot_count
        size = manager.rebuild_at(trigger="enable")
        assert isinstance(size, int)
        assert size >= 0
        assert manager.log.snapshot_count == snapshots_before

    def test_rebuild_at_leaves_tables_equivalent(self) -> None:
        from repro.core.equivalence import semantically_equivalent

        manager = self._loaded()
        manager.rebuild_at()
        assert semantically_equivalent(
            manager.state.ot_table(), manager.state.at_table(), 8
        )


class TestMustConsumeMarker:
    def test_identity_decorator(self) -> None:
        def producer() -> list:
            return [1]

        assert must_consume(producer) is producer

    def test_core_producers_are_marked(self) -> None:
        # The marker carries no runtime state; what matters is that the
        # decorator stays on the producers the flow rule watches.
        import ast
        import inspect

        from repro.core import downloads, manager, smalta

        marked: set[str] = set()
        for module in (smalta, manager, downloads):
            tree = ast.parse(inspect.getsource(module))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for decorator in node.decorator_list:
                        name = decorator
                        if isinstance(name, ast.Attribute):
                            name = name.attr
                        elif isinstance(name, ast.Name):
                            name = name.id
                        if name == "must_consume":
                            marked.add(node.name)
        assert {
            "insert",
            "delete",
            "apply_batch",
            "snapshot",
            "snapshot_now",
            "diff_tables",
        } <= marked
