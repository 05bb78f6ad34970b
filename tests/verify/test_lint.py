"""Fixture tests for the repo-specific per-file lint rules (REPRO001-003,
REPRO005, REPRO006), and the per-file recursion cases REPRO007 covers.

Each rule gets a minimal module that violates it (the rule fires), a
compliant variant (it stays silent), and a ``# noqa`` waiver check.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.verify.engine import RULES, analyze
from repro.verify.findings import Finding

LINT_SELECT = frozenset({"REPRO001", "REPRO002", "REPRO003", "REPRO005", "REPRO006"})


def write(tmp_path: Path, relative: str, source: str) -> Path:
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def lint(paths: list[Path]) -> list[Finding]:
    return analyze(paths, LINT_SELECT)


def codes(findings: list[Finding]) -> list[str]:
    return [finding.rule for finding in findings]


def test_rule_catalogue_is_complete():
    assert [RULES[code].name for code in sorted(LINT_SELECT)] == [
        "missing-slots",
        "trie-write-outside-core",
        "wall-clock-call",
        "untyped-public",
        "falsy-len-guard",
    ]


# -- REPRO001: __slots__ on node classes -------------------------------------


def test_missing_slots_fires(tmp_path):
    bad = write(tmp_path, "a.py", "class TrieNode:\n    pass\n")
    assert codes(lint([bad])) == ["REPRO001"]


def test_slots_declared_is_clean(tmp_path):
    good = write(tmp_path, "a.py", "class TrieNode:\n    __slots__ = ()\n")
    assert lint([good]) == []


def test_non_node_class_exempt(tmp_path):
    good = write(tmp_path, "a.py", "class Manager:\n    pass\n")
    assert lint([good]) == []


# -- REPRO002: trie bookkeeping writes confined to core ----------------------


def test_trie_write_outside_core_fires(tmp_path):
    bad = write(
        tmp_path,
        "experiments/mod.py",
        "def _poke(node):\n    node.d_a = None\n",
    )
    assert codes(lint([bad])) == ["REPRO002"]


def test_trie_write_inside_core_allowed(tmp_path):
    good = write(
        tmp_path,
        "repro/core/mod.py",
        "def _poke(node):\n    node.d_a = None\n",
    )
    assert lint([good]) == []


# -- REPRO003: injected clocks only ------------------------------------------


def test_wall_clock_fires(tmp_path):
    bad = write(
        tmp_path,
        "a.py",
        "import time\n\ndef _stamp():\n    return time.time()\n",
    )
    assert codes(lint([bad])) == ["REPRO003"]


def test_wall_clock_noqa_waived(tmp_path):
    waived = write(
        tmp_path,
        "a.py",
        "import time\n\ndef _stamp():\n"
        "    return time.time()  # noqa: REPRO003\n",
    )
    assert lint([waived]) == []


def test_bare_noqa_waives_everything(tmp_path):
    waived = write(
        tmp_path,
        "a.py",
        "import time\n\ndef _stamp():\n    return time.time()  # noqa\n",
    )
    assert lint([waived]) == []


def test_injected_clock_is_clean(tmp_path):
    good = write(
        tmp_path,
        "a.py",
        "def _stamp(clock):\n    return clock()\n",
    )
    assert lint([good]) == []


def test_module_level_wall_clock_fires(tmp_path):
    # REPRO014 treats the module's own ``import time`` as a local
    # binding and stays silent here; REPRO003 is what catches it.
    bad = write(tmp_path, "a.py", "import time\n\nSTART = time.time()\n")
    assert codes(lint([bad])) == ["REPRO003"]


def test_wall_clock_after_local_import_fires(tmp_path):
    bad = write(
        tmp_path,
        "a.py",
        "def _stamp():\n"
        "    import datetime\n"
        "    return datetime.datetime.now()\n",
    )
    assert codes(lint([bad])) == ["REPRO003"]


# -- Recursion: one rule, REPRO007, also covers the per-file cases ----------


def recursion(paths: list[Path]) -> list[Finding]:
    return analyze(paths, frozenset({"REPRO007"}))


def test_recursive_function_fires(tmp_path):
    bad = write(
        tmp_path,
        "a.py",
        "def _walk(node):\n"
        "    for child in node.children():\n"
        "        _walk(child)\n",
    )
    assert codes(recursion([bad])) == ["REPRO007"]


def test_recursive_method_fires(tmp_path):
    bad = write(
        tmp_path,
        "a.py",
        "class Walker:\n"
        "    def _walk(self, node):\n"
        "        self._walk(node.left)\n",
    )
    assert codes(recursion([bad])) == ["REPRO007"]


def test_delegating_call_is_not_recursion(tmp_path):
    good = write(
        tmp_path,
        "a.py",
        "class Facade:\n"
        "    def apply(self, update):\n"
        "        return self.manager.apply(update)\n",
    )
    assert recursion([good]) == []


# -- REPRO005: annotated public API in core/net/verify -----------------------


def test_untyped_public_function_in_core_fires(tmp_path):
    bad = write(
        tmp_path,
        "repro/core/mod.py",
        "def walk(trie):\n    return trie\n",
    )
    found = codes(lint([bad]))
    assert found == ["REPRO005", "REPRO005"]  # the parameter and the return


def test_typed_public_function_is_clean(tmp_path):
    good = write(
        tmp_path,
        "repro/core/mod.py",
        "def walk(trie: object) -> object:\n    return trie\n",
    )
    assert lint([good]) == []


def test_private_and_out_of_scope_functions_exempt(tmp_path):
    # The experiments layer stays outside the REPRO005 annotation floor
    # (workloads/bgp/obs joined it in the observability PR).
    good = write(
        tmp_path,
        "repro/experiments/mod.py",
        "def walk(trie):\n    return trie\n",
    )
    private = write(
        tmp_path,
        "repro/core/other.py",
        "def _walk(trie):\n    return trie\n",
    )
    assert lint([good, private]) == []


# -- REPRO006: no truthiness tests on __len__-bearing parameters -------------

LEN_CLASS = """\
class DownloadLog:
    def __len__(self):
        return 0
"""


def test_falsy_len_guard_fires(tmp_path):
    write(tmp_path, "defs.py", LEN_CLASS)
    bad = write(
        tmp_path,
        "use.py",
        "def _pick(log: DownloadLog):\n"
        "    if log:\n"
        "        return log\n",
    )
    assert codes(lint([tmp_path / "defs.py", bad])) == ["REPRO006"]


def test_falsy_len_guard_unwraps_optional(tmp_path):
    write(tmp_path, "defs.py", LEN_CLASS)
    bad = write(
        tmp_path,
        "use.py",
        "from typing import Optional\n\n"
        "def _pick(log: Optional[DownloadLog]):\n"
        "    return log or DownloadLog()\n",
    )
    assert codes(lint([tmp_path / "defs.py", bad])) == ["REPRO006"]


def test_is_not_none_guard_is_clean(tmp_path):
    write(tmp_path, "defs.py", LEN_CLASS)
    good = write(
        tmp_path,
        "use.py",
        "def _pick(log: DownloadLog):\n"
        "    if log is not None:\n"
        "        return log\n",
    )
    assert lint([tmp_path / "defs.py", good]) == []
