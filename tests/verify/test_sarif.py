"""SARIF conformance and fingerprint-stability tests for every rule family.

The container has no ``jsonschema`` package, so a tiny hand-written
validator interprets the vendored minimal schema
(``sarif_schema_2_1_0.json``) — it supports exactly the JSON-Schema
subset the vendored file uses: ``type``, ``required``, ``properties``,
``items``, ``enum``, ``minItems``, ``minimum``, and local ``$ref``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.verify.cli import main as verify_main
from repro.verify.engine import RULES, analyze
from repro.verify.findings import Finding

HERE = Path(__file__).resolve().parent
SCHEMA = json.loads((HERE / "sarif_schema_2_1_0.json").read_text(encoding="utf-8"))
FIXTURES = HERE / "effects_fixtures"
FLOW_FIXTURES = HERE / "flow_fixtures"
INTERLEAVE_FIXTURES = HERE.parent / "analysis" / "interleave_fixtures"


def validate(instance: object, schema: dict = SCHEMA) -> list[str]:
    """All violations of ``instance`` against the vendored schema subset."""
    errors: list[str] = []
    definitions = schema.get("definitions", {})
    work: list[tuple[object, dict, str]] = [(instance, schema, "$")]
    while work:
        value, node, where = work.pop()
        ref = node.get("$ref")
        if ref is not None:
            name = ref.rsplit("/", 1)[-1]
            node = definitions[name]
        expected = node.get("type")
        if expected is not None:
            matched = {
                "object": lambda v: isinstance(v, dict),
                "array": lambda v: isinstance(v, list),
                "string": lambda v: isinstance(v, str),
                "integer": lambda v: isinstance(v, int)
                and not isinstance(v, bool),
            }[expected](value)
            if not matched:
                errors.append(f"{where}: expected {expected}")
                continue
        if "enum" in node and value not in node["enum"]:
            errors.append(f"{where}: {value!r} not in {node['enum']}")
        if "minimum" in node and isinstance(value, int) and value < node["minimum"]:
            errors.append(f"{where}: {value} < minimum {node['minimum']}")
        if isinstance(value, dict):
            for required in node.get("required", ()):
                if required not in value:
                    errors.append(f"{where}: missing required {required!r}")
            for prop, subschema in node.get("properties", {}).items():
                if prop in value:
                    work.append((value[prop], subschema, f"{where}.{prop}"))
        if isinstance(value, list):
            if "minItems" in node and len(value) < node["minItems"]:
                errors.append(f"{where}: fewer than {node['minItems']} items")
            item_schema = node.get("items")
            if item_schema is not None:
                for position, item in enumerate(value):
                    work.append((item, item_schema, f"{where}[{position}]"))
    return errors


class TestMiniValidator:
    """The validator must be trustworthy before it can vouch for SARIF."""

    def test_accepts_a_minimal_document(self) -> None:
        doc = {
            "version": "2.1.0",
            "runs": [
                {"tool": {"driver": {"name": "x"}}, "results": []}
            ],
        }
        assert validate(doc) == []

    def test_rejects_wrong_version(self) -> None:
        doc = {"version": "2.0.0", "runs": [{"tool": {"driver": {"name": "x"}}, "results": []}]}
        assert any("not in" in e for e in validate(doc))

    def test_rejects_missing_required(self) -> None:
        assert any("missing required" in e for e in validate({"version": "2.1.0"}))

    def test_rejects_empty_runs(self) -> None:
        assert any("fewer than" in e for e in validate({"version": "2.1.0", "runs": []}))

    def test_rejects_bad_start_line(self) -> None:
        doc = {
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {"driver": {"name": "x"}},
                    "results": [
                        {
                            "ruleId": "R",
                            "message": {"text": "m"},
                            "locations": [
                                {
                                    "physicalLocation": {
                                        "artifactLocation": {"uri": "f.py"},
                                        "region": {"startLine": 0},
                                    }
                                }
                            ],
                        }
                    ],
                }
            ],
        }
        assert any("minimum" in e for e in validate(doc))

    def test_rejects_type_mismatch(self) -> None:
        doc = {"version": "2.1.0", "runs": "oops"}
        assert any("expected array" in e for e in validate(doc))


def _sarif_from_cli(argv) -> dict:
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = verify_main([*argv, "--format", "sarif"])
    assert code in (0, 1)
    return json.loads(buffer.getvalue())


class TestSarifConformance:
    @pytest.mark.parametrize(
        ("argv", "rules"),
        [
            pytest.param(
                [str(FLOW_FIXTURES / "rec"), "--select", "REPRO007"],
                ["REPRO007", "REPRO007"],
                id="rec",
            ),
            pytest.param(
                [str(FIXTURES / "seam")],
                ["REPRO003", "REPRO005", "REPRO014", "REPRO014", "REPRO014"],
                id="seam",
            ),
            pytest.param(
                [str(INTERLEAVE_FIXTURES / "tasks")],
                ["REPRO019", "REPRO019"],
                id="tasks",
            ),
        ],
    )
    def test_sarif_validates(self, argv: list[str], rules: list[str]) -> None:
        doc = _sarif_from_cli(argv)
        assert validate(doc) == []
        assert sorted(r["ruleId"] for r in doc["runs"][0]["results"]) == rules

    def test_umbrella_sarif_merges_all_passes(self, tmp_path) -> None:
        # One file violating a lint rule (REPRO003 wall clock) plus a
        # dropped coroutine (REPRO020), analyzed together with
        # effect-rule idioms: the merged document must carry rule
        # metadata for every rule and still validate.
        sample = tmp_path / "mixed.py"
        sample.write_text(
            "import time\n\n\ndef stamp():\n    return time.time()\n\n\n"
            "async def helper():\n    return 1\n\n\n"
            "async def top():\n    helper()\n",
            encoding="utf-8",
        )
        doc = _sarif_from_cli([str(tmp_path)])
        assert validate(doc) == []
        rule_ids = {r["ruleId"] for r in doc["runs"][0]["results"]}
        assert "REPRO003" in rule_ids  # lint pass
        assert "REPRO014" in rule_ids  # effects pass
        assert "REPRO020" in rule_ids  # interleave pass
        declared = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert set(RULES) == declared

    def test_every_result_rule_is_declared(self) -> None:
        doc = _sarif_from_cli([str(FIXTURES / "snap")])
        declared = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        used = {r["ruleId"] for r in doc["runs"][0]["results"]}
        assert used <= declared


class TestFingerprintStability:
    """Fingerprints hash rule+path+symbol+message — never line numbers —
    so shifting code down a file must not change them."""

    def test_fingerprint_ignores_the_line(self) -> None:
        a = Finding("REPRO013", "pkg/mod.py", 10, "mod.f", "message")
        b = Finding("REPRO013", "pkg/mod.py", 99, "mod.f", "message")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != Finding(
            "REPRO013", "pkg/other.py", 10, "mod.f", "message"
        ).fingerprint()

    @pytest.mark.parametrize(
        "code", ["REPRO003", "REPRO007", "REPRO014", "REPRO018"]
    )
    def test_line_shift_preserves_fingerprints(self, tmp_path, code) -> None:
        body = (
            "import asyncio\n"
            "import time\n"
            "def walk(node):\n"
            "    t = time.time()\n"
            "    return walk(node) + t\n"
            "class Daemon:\n"
            "    async def start(self):\n"
            "        if self._control is None:\n"
            "            await asyncio.sleep(0)\n"
            "            self._control = walk(None)\n"
        )
        target = tmp_path / "case.py"
        target.write_text(body, encoding="utf-8")
        select = frozenset({code})
        before = {f.fingerprint() for f in analyze([tmp_path], select)}
        assert before
        # Shift every line of code down by three comment lines.
        target.write_text("# moved\n# moved\n# moved\n" + body, encoding="utf-8")
        after = {f.fingerprint() for f in analyze([tmp_path], select)}
        assert before == after
