"""End-to-end tests for the analyzer command line, ``python -m repro.verify``."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.verify.cli import diff_scope, main
from repro.verify.engine import RULES
from repro.verify.flow.project import Project

REPO_ROOT = Path(__file__).resolve().parents[2]

MIXED_SOURCE = (
    "import time\n"
    "\n"
    "\n"
    "def stamp():\n"
    "    return time.time()\n"
    "\n"
    "\n"
    "def walk(node):\n"
    "    return walk(node)\n"
)


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse error path
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestRegistry:
    def test_registry_holds_every_code_once(self) -> None:
        retired = {4, 16}
        assert sorted(RULES) == [
            f"REPRO0{i:02d}" for i in range(1, 24) if i not in retired
        ]
        for code, spec in RULES.items():
            assert spec.code == code
            assert spec.name
            assert spec.summary
        assert len({spec.name for spec in RULES.values()}) == len(RULES)

    def test_unknown_select_is_a_usage_error(self, tmp_path) -> None:
        (tmp_path / "m.py").write_text("X = 1\n", encoding="utf-8")
        code, _, _ = run_cli([str(tmp_path), "--select", "REPRO999"])
        assert code == 2

    @pytest.mark.parametrize("code", ["REPRO004", "REPRO016"])
    def test_retired_code_is_a_usage_error(self, tmp_path, code) -> None:
        (tmp_path / "m.py").write_text("X = 1\n", encoding="utf-8")
        argv = [str(tmp_path), "--select", f"{code},REPRO007"]
        exit_code, _, err = run_cli(argv)
        assert exit_code == 2
        assert code in err

    def test_rule_catalog_doc_matches_registry(self) -> None:
        """docs/VERIFICATION.md's rule tables list exactly the registry's
        codes and names, so a retired or renamed rule cannot linger."""
        doc = REPO_ROOT / "docs" / "VERIFICATION.md"
        rows: list[tuple[str, str]] = []
        for line in doc.read_text(encoding="utf-8").splitlines():
            cells = [cell.strip().strip("`") for cell in line.strip().split("|")]
            if len(cells) > 3 and re.fullmatch(r"REPRO\d{3}", cells[1]):
                rows.append((cells[1], cells[2]))
        registry = [(code, spec.name) for code, spec in RULES.items()]
        assert sorted(rows) == sorted(registry)


class TestExitContract:
    def test_clean_tree_exits_zero(self, tmp_path) -> None:
        (tmp_path / "clean.py").write_text("X = 1\n", encoding="utf-8")
        code, out, _ = run_cli([str(tmp_path)])
        assert code == 0
        assert "0 finding(s)" in out

    def test_findings_exit_one(self, tmp_path) -> None:
        (tmp_path / "mixed.py").write_text(MIXED_SOURCE, encoding="utf-8")
        code, out, _ = run_cli([str(tmp_path)])
        assert code == 1
        # lint, flow, and effects findings all appear in one report:
        assert "REPRO003" in out  # lint: wall clock
        assert "REPRO007" in out  # flow: recursion
        assert "REPRO014" in out  # effects: seam bypass

    def test_missing_path_is_a_usage_error(self, tmp_path) -> None:
        code, _, _ = run_cli([str(tmp_path / "absent")])
        assert code == 2

    def test_select_restricts_to_one_pass(self, tmp_path) -> None:
        (tmp_path / "mixed.py").write_text(MIXED_SOURCE, encoding="utf-8")
        code, out, _ = run_cli([str(tmp_path), "--select", "REPRO014"])
        assert code == 1
        assert "REPRO014" in out
        assert "REPRO003" not in out and "REPRO007" not in out

    def test_json_format_is_machine_readable(self, tmp_path) -> None:
        (tmp_path / "mixed.py").write_text(MIXED_SOURCE, encoding="utf-8")
        _, out, _ = run_cli([str(tmp_path), "--format", "json"])
        rules = {entry["rule"] for entry in json.loads(out)}
        assert {"REPRO003", "REPRO007", "REPRO014"} <= rules

    def test_output_file(self, tmp_path) -> None:
        (tmp_path / "clean.py").write_text("X = 1\n", encoding="utf-8")
        report = tmp_path / "report.txt"
        code, _, _ = run_cli([str(tmp_path), "--output", str(report)])
        assert code == 0
        assert "0 finding(s)" in report.read_text(encoding="utf-8")

    def test_list_rules_covers_all_passes(self) -> None:
        code, out, _ = run_cli(["--list-rules"])
        assert code == 0
        for probe in ("REPRO001", "REPRO007", "REPRO013", "REPRO017", "REPRO018", "REPRO023"):
            assert probe in out


class TestRepoGates:
    def test_repo_default_run_is_clean(self, monkeypatch) -> None:
        """The gate CI runs: every rule over the default roots, zero
        findings."""
        monkeypatch.chdir(REPO_ROOT)
        code, out, _ = run_cli([])
        assert code == 0, out
        assert "0 finding(s)" in out

    def test_the_umbrella_is_the_only_command(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))

        def run_module(module: str, *args: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-m", module, *args],
                capture_output=True,
                text=True,
                cwd=REPO_ROOT,
                env=env,
                timeout=120,
            )

        listing = run_module("repro.verify", "--list-rules")
        assert listing.returncode == 0, listing.stderr
        rule_lines = [
            line for line in listing.stdout.splitlines() if line.startswith("REPRO")
        ]
        assert len(rule_lines) == len(RULES) == 21
        # lint.py stays importable, so its guard must refuse to "pass"
        # by checking nothing; the other passes have no entry point.
        lint = run_module("repro.verify.lint", "src")
        assert lint.returncode == 2
        assert "python -m repro.verify" in lint.stderr
        for pass_module in ("flow", "effects", "interleave"):
            proc = run_module(f"repro.verify.{pass_module}", "src")
            assert proc.returncode != 0, pass_module


class TestDiffScope:
    @pytest.fixture()
    def project(self, tmp_path) -> tuple[Project, Path]:
        (tmp_path / "base.py").write_text("X = 1\n", encoding="utf-8")
        (tmp_path / "mid.py").write_text("from base import X\n", encoding="utf-8")
        (tmp_path / "top.py").write_text("import mid\n", encoding="utf-8")
        (tmp_path / "island.py").write_text("Y = 2\n", encoding="utf-8")
        return Project.load([tmp_path]), tmp_path

    def test_scope_includes_transitive_importers(self, project) -> None:
        proj, root = project
        scope = diff_scope(proj, root, {"base.py"})
        assert scope == {"base.py", "mid.py", "top.py"}

    def test_unrelated_modules_stay_out(self, project) -> None:
        proj, root = project
        scope = diff_scope(proj, root, {"island.py"})
        assert scope == {"island.py"}

    def test_non_python_changes_pass_through(self, project) -> None:
        proj, root = project
        scope = diff_scope(proj, root, {"README.md"})
        assert scope == {"README.md"}

    def test_diff_mode_filters_the_report(self, tmp_path) -> None:
        # A repo with two findings; only the changed file's one survives.
        # The project sits one directory below the git work tree, so git
        # paths must be made relative to the project root.
        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True, timeout=60)
        root = tmp_path / "proj"
        root.mkdir()
        (root / "pyproject.toml").write_text("[project]\nname='t'\n", encoding="utf-8")
        dirty = root / "dirty.py"
        other = root / "other.py"
        dirty.write_text("import time\n\n\ndef a():\n    return time.time()\n", encoding="utf-8")
        other.write_text("import time\n\n\ndef b():\n    return time.time()\n", encoding="utf-8")
        git_env = {
            "PATH": "/usr/bin:/bin:/usr/local/bin",
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
        }
        subprocess.run(["git", "add", "-A"], cwd=root, check=True, env=git_env, timeout=60)
        subprocess.run(
            ["git", "commit", "-qm", "seed"], cwd=root, check=True, env=git_env, timeout=60
        )
        dirty.write_text(
            "import time\n\n\ndef a():\n    x = time.time()\n    return x\n",
            encoding="utf-8",
        )
        # A new file git does not track yet is part of the change too.
        fresh = root / "fresh.py"
        fresh.write_text(
            "import time\n\n\ndef c():\n    return time.time()\n", encoding="utf-8"
        )
        code, out, err = run_cli(
            [str(dirty), str(other), str(fresh)]
            + ["--diff", "HEAD", "--select", "REPRO003"]
        )
        assert code == 1
        assert "dirty.py" in out
        assert "fresh.py" in out
        assert "other.py" not in out
        assert "diff mode: 2 changed file(s)" in err

    def test_diff_without_repo_root_warns_and_reports_everything(
        self, tmp_path
    ) -> None:
        (tmp_path / "stamp.py").write_text(
            "import time\n\n\ndef a():\n    return time.time()\n", encoding="utf-8"
        )
        code, out, err = run_cli(
            [str(tmp_path), "--diff", "HEAD", "--select", "REPRO003"]
        )
        assert code == 1
        assert "stamp.py" in out
        assert "running in full mode" in err
