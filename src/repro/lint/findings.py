"""Finding and severity vocabulary for the linter.

A :class:`Finding` is one rule violation anchored to a ``file:line:col``
position.  Findings are plain frozen dataclasses so the engine can sort
and compare them without ceremony.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

__all__ = ["Severity", "Finding"]


class Severity(enum.Enum):
    """How seriously a rule violation undermines the reproduction.

    ``ERROR`` findings break the determinism/purity contract outright
    (a campaign result can no longer be trusted); ``WARNING`` findings
    are hygiene issues that make such breaks easier to introduce.
    Both fail the lint run — the distinction is informational.
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at a concrete source position.

    Attributes
    ----------
    path:
        Path of the offending file as given to the engine (posix
        separators, relative to the invocation directory when possible).
    line / col:
        1-based line and 0-based column of the offending node, matching
        :mod:`ast` conventions (and how editors interpret ``file:line``).
    code:
        The rule identifier, e.g. ``"DET001"``.
    message:
        Human-readable description of this specific violation.
    severity:
        The owning rule's severity.
    waived:
        True when a ``# repro-lint: disable=...`` comment suppressed
        this finding.  Waived findings are reported separately and do
        not affect the exit code.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    severity: Severity = Severity.ERROR
    waived: bool = field(default=False, compare=False)

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def as_waived(self) -> "Finding":
        return replace(self, waived=True)

    def location(self) -> str:
        """The clickable ``path:line:col`` prefix."""
        return f"{self.path}:{self.line}:{self.col}"
