"""Rule interface, module context, and the rule registry.

A *rule* inspects one parsed module at a time — or, for a
:class:`ProjectRule`, the linked whole-program model — and yields
:class:`~repro.lint.findings.Finding` instances.  Rules register
themselves with :func:`register_rule` at import time; the engine asks
:func:`all_rules` for the battery, which lazily imports
:mod:`repro.lint.checks` so that merely importing :mod:`repro.lint`
stays cheap.

Rules receive a :class:`ModuleContext` — the parsed AST plus everything
needed to scope a rule (the dotted module name, the active
:class:`~repro.lint.config.LintConfig`) and to emit findings anchored
to the right file.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from repro.lint.config import LintConfig
from repro.lint.findings import Finding, Severity

__all__ = [
    "ModuleContext",
    "Rule",
    "ProjectRule",
    "register_rule",
    "all_rules",
    "get_rule",
    "rule_codes",
    "root_name",
]


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule needs to know about one module under lint.

    Attributes
    ----------
    path:
        Display path of the file (posix separators).
    module:
        Dotted module name, e.g. ``"repro.replication.ranking"``,
        derived from the ``__init__.py`` chain above the file.  Rules
        use it for scope checks (``config.in_package``).
    tree:
        The parsed :class:`ast.Module`.
    config:
        The active lint configuration.
    """

    path: str
    module: str
    tree: ast.Module
    config: LintConfig

    @cached_property
    def aliases(self) -> dict[str, str]:
        """Local names mapped to the dotted origin they were imported
        as (absolute imports, anywhere in the file)."""
        aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    origin = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    aliases[local] = origin
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    aliases[local] = f"{node.module}.{alias.name}"
        return aliases


class Rule(abc.ABC):
    """One named static-analysis check.

    Subclasses set the class attributes and implement :meth:`check`.
    ``rationale`` explains *why* the rule protects the reproduction —
    it is surfaced by ``--list-rules`` and docs, keeping the contract
    discoverable from the tool itself.
    """

    #: Stable identifier, e.g. ``"DET001"``.
    code: str = ""
    #: Short human name, e.g. ``"direct-random"``.
    name: str = ""
    severity: Severity = Severity.ERROR
    #: One-sentence summary of what the rule forbids.
    summary: str = ""
    #: Why violating this rule invalidates campaign results.
    rationale: str = ""

    @abc.abstractmethod
    def check(self, module: ModuleContext) -> Iterable[Finding]:
        """Yield every violation of this rule in ``module``."""

    def finding(self, module: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        """Build a finding for ``node`` with this rule's identity."""
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
            severity=self.severity,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Rule {self.code} ({self.name})>"


class ProjectRule(Rule):
    """A rule that needs the whole-program model, not one module.

    Project rules receive the linked
    :class:`~repro.lint.graph.ProjectModel` and may anchor findings in
    *any* analyzed file.  The per-module :meth:`check` is a no-op so a
    mixed battery can be dispatched uniformly.
    """

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        return ()

    @abc.abstractmethod
    def check_project(self, model) -> Iterable[Finding]:
        """Yield every violation of this rule across ``model``."""

    def project_finding(self, path: str, line: int, col: int,
                        message: str) -> Finding:
        """Build a finding at an explicit position in ``path``."""
        return Finding(
            path=path, line=line, col=col, code=self.code,
            message=message, severity=self.severity,
        )


_REGISTRY: dict[str, Rule] = {}


def register_rule(cls: type) -> type:
    """Class decorator: instantiate and register a :class:`Rule`."""
    rule = cls()
    if not rule.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    # Waived: the rule registry is filled once, at import of
    # repro.lint.checks, identically in every process; no campaign
    # code reads it.
    _REGISTRY[rule.code] = rule  # repro-lint: disable=DET005
    return cls


def _ensure_loaded() -> None:
    # Imported for its registration side effects only.
    from repro.lint import checks  # noqa: F401


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by code."""
    _ensure_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def rule_codes() -> list[str]:
    """Sorted list of registered rule codes."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_rule(code: str) -> Rule:
    """Look one rule up by code; raises ``KeyError`` if unknown."""
    _ensure_loaded()
    return _REGISTRY[code]


def root_name(node: ast.AST) -> str | None:
    """The root identifier of an attribute/subscript/call chain.

    ``trace.operations[0].observed.append`` → ``"trace"``; returns None
    when the chain does not bottom out in a plain name (e.g. a literal).
    Shared by rules that need to know which object an expression hangs
    off.
    """
    while True:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, (ast.Attribute, ast.Starred)):
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return None
