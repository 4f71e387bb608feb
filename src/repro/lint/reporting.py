"""Rendering lint results.

Output is one ``path:line:col: CODE message`` line per finding — the
format editors and CI log scanners already understand — followed by
the waived findings (always printed, so a stale waiver stays in view),
any notes, and a one-line summary.
"""

from __future__ import annotations

from typing import Sequence

from repro.lint.engine import LintResult
from repro.lint.rules import Rule

__all__ = ["render_human", "render_rule_list"]


def render_human(result: LintResult) -> str:
    """The terminal report."""
    lines: list[str] = []
    for finding in result.findings:
        lines.append(
            f"{finding.location()}: {finding.code} "
            f"[{finding.severity}] {finding.message}"
        )
    for finding in result.waived:
        lines.append(
            f"{finding.location()}: {finding.code} [waived] "
            f"{finding.message}"
        )
    for note in result.notes:
        lines.append(f"note: {note}")
    total = len(result.findings)
    summary = (
        f"checked {result.files_checked} file"
        f"{'s' if result.files_checked != 1 else ''}, "
        f"{result.functions_checked} function"
        f"{'s' if result.functions_checked != 1 else ''}: "
    )
    if total:
        per_rule = ", ".join(
            f"{code} x{count}" for code, count in result.by_rule().items()
        )
        summary += f"{total} finding{'s' if total != 1 else ''} ({per_rule})"
    else:
        summary += "no findings"
    if result.waived:
        summary += f", {len(result.waived)} waived"
    lines.append(summary)
    return "\n".join(lines)


def render_rule_list(rules: Sequence[Rule]) -> str:
    """The ``--list-rules`` table: code, severity, summary, rationale."""
    lines: list[str] = []
    for rule in rules:
        lines.append(
            f"{rule.code}  [{rule.severity}]  {rule.name}: {rule.summary}"
        )
        lines.append(f"        {rule.rationale}")
    return "\n".join(lines)
