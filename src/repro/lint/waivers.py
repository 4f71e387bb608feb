"""Waiver comments: ``# repro-lint: disable=RULE``.

A waiver is an *explicit, reviewable* exception to a rule, written at
the exempt line: ``# repro-lint: disable=DET001`` suppresses the named
rule(s) for findings anchored to the same physical line (multiple
codes may be comma-separated).  There is no file-wide form, no
``all`` pseudo-code and no waiver file — an exemption that cannot
name its line and its rule is not reviewable.  By convention the
reason is stated in prose on, or directly above, the waived line.

Waived findings are not dropped silently: the engine keeps them on a
separate list and every report prints them, so reviewers can challenge
stale waivers.

Comments are located with :mod:`tokenize` (the AST discards them), so
waivers inside string literals are never misread as directives.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = ["WaiverSet", "collect_waivers"]

_WAIVER_RE = re.compile(
    r"#\s*repro-lint:\s*disable\s*=\s*"
    r"(?P<codes>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


@dataclass(frozen=True)
class WaiverSet:
    """All waivers declared in one file."""

    #: line number (1-based) -> rule codes waived on that line.
    by_line: dict[int, frozenset[str]] = field(default_factory=dict)

    def is_waived(self, line: int, code: str) -> bool:
        """Does a waiver cover a finding of ``code`` at ``line``?"""
        return code in self.by_line.get(line, frozenset())

    def __bool__(self) -> bool:
        return bool(self.by_line)


def collect_waivers(source: str) -> WaiverSet:
    """Scan ``source`` for waiver comments.

    Falls back to a plain line scan if tokenisation fails (the engine
    only calls this for files that already parsed, so that path is
    defensive).
    """
    try:
        comments = [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(
                io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenizeError, SyntaxError,
            IndentationError):  # pragma: no cover - defensive
        comments = [
            (index + 1, line)
            for index, line in enumerate(source.splitlines())
            if "#" in line
        ]
    by_line: dict[int, set[str]] = {}
    for line, comment in comments:
        match = _WAIVER_RE.search(comment)
        if match is not None:
            by_line.setdefault(line, set()).update(
                code.strip() for code in match.group("codes").split(","))
    return WaiverSet(
        by_line={line: frozenset(codes)
                 for line, codes in by_line.items()},
    )
