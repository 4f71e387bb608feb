"""The lint engine: file discovery, parsing, rule dispatch, waivers.

The engine is deliberately boring and deterministic: files are visited
in sorted path order, rules in sorted code order, and findings are
emitted sorted by ``(path, line, col, code)`` — so two lint runs over
the same tree produce byte-identical reports (the linter holds itself
to the standard it enforces).

There is one mode.  Every run parses each file once, runs the
per-module rules on it, collects its waivers and distills a
:class:`~repro.lint.summaries.ModuleSummary`; the summaries are then
linked into a :class:`~repro.lint.graph.ProjectModel` and the
cross-module rules run over it.  Nothing is cached between runs: the
whole tree takes a few seconds.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterator, Sequence

from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity
from repro.lint.graph import build_project_model
from repro.lint.rules import ModuleContext, ProjectRule, Rule, all_rules
from repro.lint.summaries import ModuleSummary, summarize_module
from repro.lint.waivers import WaiverSet, collect_waivers

__all__ = [
    "LintEngine",
    "LintResult",
    "lint_paths",
    "module_name",
    "iter_python_files",
]

#: Code attached to files that fail to parse at all.
SYNTAX_ERROR_CODE = "SYNTAX"


@dataclass
class LintResult:
    """Outcome of one engine run."""

    #: Unwaived findings, sorted by position.
    findings: list[Finding] = field(default_factory=list)
    #: Findings suppressed by waiver comments, sorted.
    waived: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Functions and methods in the linked project model.
    functions_checked: int = 0
    #: Diagnostics that are not findings (module-name collisions).
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing unwaived was found."""
        return not self.findings

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))


@dataclass
class _FileRecord:
    """What one parsed file contributes to the run."""

    display: str
    findings: list[Finding]
    waivers: WaiverSet
    summary: ModuleSummary | None


def module_name(path: Path) -> str:
    """Dotted module name for ``path``, from its ``__init__.py`` chain.

    Walks upward while the parent directory is a package, so
    ``src/repro/sim/clock.py`` resolves to ``"repro.sim.clock"``
    regardless of where the source tree is checked out.  A file outside
    any package is just its stem.
    """
    path = path.resolve()
    parts = [path.stem]
    current = path.parent
    while (current / "__init__.py").is_file():
        parts.append(current.name)
        current = current.parent
    if parts[0] == "__init__":
        parts = parts[1:] or [path.stem]
    return ".".join(reversed(parts))


def _display_path(path: Path) -> str:
    resolved = path.resolve()
    try:
        relative = resolved.relative_to(Path.cwd())
    except ValueError:
        relative = resolved
    return str(PurePosixPath(relative))


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield the ``.py`` files under ``paths`` in sorted order."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


class LintEngine:
    """Runs the rule battery over files and applies waivers."""

    def __init__(self, config: LintConfig | None = None) -> None:
        self.config = config or LintConfig()
        self.rules: list[Rule] = all_rules()

    def _analyze_file(self, path: Path) -> _FileRecord:
        """Parse one file; run the per-module rules; summarize it."""
        display = _display_path(path)
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return _FileRecord(
                display=display,
                findings=[Finding(
                    path=display,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    code=SYNTAX_ERROR_CODE,
                    message=f"file does not parse: {exc.msg}",
                    severity=Severity.ERROR,
                )],
                waivers=WaiverSet(), summary=None,
            )
        module = module_name(path)
        context = ModuleContext(
            path=display, module=module, tree=tree, config=self.config)
        findings = [
            finding
            for rule in self.rules
            for finding in rule.check(context)
        ]
        summary = summarize_module(
            tree, module, display,
            is_package=path.name == "__init__.py",
        )
        return _FileRecord(
            display=display, findings=findings,
            waivers=collect_waivers(source), summary=summary,
        )

    def lint_paths(self, paths: Sequence[Path | str]) -> LintResult:
        """Lint every python file under ``paths`` — the whole battery:
        per-module rules on each file, cross-module rules on the
        project model linked from all of them."""
        result = LintResult()
        found: list[Finding] = []
        summaries: dict[str, ModuleSummary] = {}
        waiver_sets: dict[str, WaiverSet] = {}
        for path in iter_python_files([Path(p) for p in paths]):
            record = self._analyze_file(path)
            result.files_checked += 1
            found.extend(record.findings)
            waiver_sets[record.display] = record.waivers
            if record.summary is None:
                continue
            key = record.summary.module
            if key in summaries:
                # Two top-level scripts with the same stem (e.g. in
                # tools/ and examples/): keep both, under a key that
                # can never match a dotted scope.
                key = f"{key}@{record.display}"
                result.notes.append(
                    f"module name collision: '{record.summary.module}' "
                    f"also names {summaries[record.summary.module].path}"
                    f"; analyzing {record.display} standalone"
                )
            summaries[key] = record.summary

        model = build_project_model(summaries, self.config)
        result.functions_checked = len(model.functions)
        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                found.extend(rule.check_project(model))

        for finding in found:
            if waiver_sets[finding.path].is_waived(
                    finding.line, finding.code):
                result.waived.append(finding.as_waived())
            else:
                result.findings.append(finding)
        result.findings.sort(key=lambda finding: finding.sort_key)
        result.waived.sort(key=lambda finding: finding.sort_key)
        result.notes.sort()
        return result


def lint_paths(paths: Sequence[Path | str],
               config: LintConfig | None = None) -> LintResult:
    """Convenience: lint ``paths`` with ``config`` (or the defaults)."""
    return LintEngine(config).lint_paths(paths)
