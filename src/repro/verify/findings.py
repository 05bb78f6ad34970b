"""Findings, fingerprints, inline suppressions, and output formats.

Every rule, from the per-file lint checks to the interleave models,
reports a :class:`Finding`. Its fingerprint is stable across
line-number churn: it hashes the rule, the repo-relative path, the
enclosing symbol, and the message — not the line.

Two inline markers waive a finding, and :func:`is_suppressed` is the
one place that reads them:

- ``# repro: allow[RULE]`` (comma-separated for several rules) on the
  offending line or on the line directly above it. Waiving a
  whole-program finding is a stronger statement than waiving a style
  nit, so the marker is distinct from ``# noqa`` and greppable on its
  own;
- ``# noqa``, bare or ``# noqa: RULE[,RULE]``, on the offending line
  itself, for the per-file lint rules (:data:`NOQA_CODES`) only.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

#: The per-file lint rules, the only ones a ``# noqa`` waives.
NOQA_CODES = frozenset({"REPRO001", "REPRO002", "REPRO003", "REPRO005", "REPRO006"})

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]*)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str  #: repo-relative POSIX path when possible
    line: int
    symbol: str  #: enclosing function qualname, module, or doc anchor
    message: str

    def fingerprint(self) -> str:
        """Stable identity of the finding (line-number free)."""
        digest = hashlib.sha256(self.message.encode("utf-8")).hexdigest()[:16]
        raw = f"{self.rule}|{self.path}|{self.symbol}|{digest}"
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:24]

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} [{self.symbol}] {self.message}"


def relativize(path: Path, root: Optional[Path]) -> str:
    """``path`` as a POSIX string relative to ``root`` when underneath it."""
    resolved = path.resolve()
    if root is not None:
        try:
            return resolved.relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


# -- suppressions --------------------------------------------------------


def parse_allow(line: str) -> frozenset[str]:
    """Rule codes waived by ``# repro: allow[...]`` markers on one line."""
    codes: set[str] = set()
    for match in _ALLOW_RE.finditer(line):
        for part in match.group(1).split(","):
            code = part.strip()
            if code:
                codes.add(code)
    return frozenset(codes)


def allowed_codes(source_lines: Sequence[str], lineno: int) -> frozenset[str]:
    """Codes allowed at ``lineno`` (1-based): same line or the line above."""
    codes: set[str] = set()
    if 1 <= lineno <= len(source_lines):
        codes |= parse_allow(source_lines[lineno - 1])
    if 2 <= lineno <= len(source_lines) + 1:
        codes |= parse_allow(source_lines[lineno - 2])
    return frozenset(codes)


def format_allow(codes: Iterable[str]) -> str:
    """Render a suppression comment that :func:`parse_allow` round-trips."""
    return f"# repro: allow[{','.join(sorted(set(codes)))}]"


def _noqa_waives(line: str, rule: str) -> bool:
    """True when ``line`` carries a ``# noqa`` that covers ``rule``."""
    marker = line.rfind("# noqa")
    if marker < 0:
        return False
    tail = line[marker + len("# noqa") :].strip()
    if not tail.startswith(":"):
        return True  # bare `# noqa` waives everything on the line
    return rule in tail[1:].replace(",", " ").split()


def is_suppressed(source_lines: Sequence[str], lineno: int, rule: str) -> bool:
    """True when a marker waives ``rule`` at ``lineno`` in this file."""
    if rule in allowed_codes(source_lines, lineno):
        return True
    return (
        rule in NOQA_CODES
        and 1 <= lineno <= len(source_lines)
        and _noqa_waives(source_lines[lineno - 1], rule)
    )


# -- output formats ------------------------------------------------------


def render_text(findings: Sequence[Finding]) -> str:
    lines = [finding.render() for finding in findings]
    lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines) + "\n"


def render_json(findings: Sequence[Finding]) -> str:
    return json.dumps([asdict(f) for f in findings], indent=2) + "\n"


def render_sarif(
    findings: Sequence[Finding], summaries: dict[str, str]
) -> str:
    """Minimal SARIF 2.1.0 — one run, one result per finding."""
    rules = [
        {
            "id": code,
            "shortDescription": {"text": summary},
        }
        for code, summary in sorted(summaries.items())
    ]
    results = [
        {
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": f"[{finding.symbol}] {finding.message}"},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {"startLine": max(finding.line, 1)},
                    }
                }
            ],
            "fingerprints": {"reproFlow/v1": finding.fingerprint()},
        }
        for finding in findings
    ]
    document = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-flow",
                        "informationUri": "https://example.invalid/repro-flow",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2) + "\n"
