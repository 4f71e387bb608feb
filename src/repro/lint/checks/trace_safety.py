"""Trace-safety rule: TRACE001 — a trace taken as input is read-only.

One trace object is handed to every consumer in turn — the stream
engine's checkers and window trackers, the metric evaluator, the
archive writer — and the prevalence/window figures assume each saw the
*same* trace.  A function that sorts, appends to, or rewrites the
trace it was given silently skews everything that runs after it — the
classic "the measurement harness broke the measurement" failure the
linter exists to prevent.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.rules import ModuleContext, Rule, register_rule, root_name
from repro.lint.summaries import MUTATING_METHODS

__all__ = ["TraceMutationRule"]

#: Parameter names / annotation substrings identifying a trace input.
_TRACE_PARAM_NAMES = frozenset({"trace", "traces"})
_TRACE_ANNOTATION = "TestTrace"


def _trace_params(func: ast.FunctionDef | ast.AsyncFunctionDef) \
        -> frozenset[str]:
    """Names of parameters of ``func`` that carry a trace."""
    names: set[str] = set()
    args = func.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.arg in _TRACE_PARAM_NAMES:
            names.add(arg.arg)
        elif arg.annotation is not None and \
                _TRACE_ANNOTATION in ast.unparse(arg.annotation):
            names.add(arg.arg)
    return frozenset(names)


def _assignment_targets(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    if isinstance(node, ast.Delete):
        return list(node.targets)
    return []


@register_rule
class TraceMutationRule(Rule):
    """TRACE001 — no mutation of a trace parameter.

    Any function of the package taking a trace parameter (named
    ``trace``/``traces`` or annotated ``TestTrace``) must treat it as
    read-only.  Flagged:

    * mutating method calls (``.append``, ``.sort``, ``.update``, ...)
      on any expression rooted at the trace parameter, including
      through attribute/subscript chains such as
      ``trace.operations[0].observed.append(...)``;
    * assignment, augmented assignment, or ``del`` whose target is an
      attribute or item of the trace parameter.

    Conservative by design: a method chain that *returns a copy* first
    (``trace.reads_by(a).sort()``) is still flagged, because nothing in
    the AST proves the copy — waive with a comment if the copy is real.
    """

    code = "TRACE001"
    name = "trace-mutation"
    severity = Severity.ERROR
    summary = "a function must not mutate the trace it is given"
    rationale = (
        "All checkers, window trackers and metrics observe the same "
        "trace object; one consumer mutating it changes what every "
        "later one sees, corrupting Figs. 3-10 without any test "
        "failing."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.config.in_package(module.module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = _trace_params(node)
                if params:
                    yield from self._check_function(module, node, params)

    def _check_function(self, module: ModuleContext,
                        func: ast.FunctionDef | ast.AsyncFunctionDef,
                        params: frozenset[str]) -> Iterator[Finding]:
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in MUTATING_METHODS and \
                    root_name(node.func.value) in params:
                yield self.finding(
                    module, node,
                    f".{node.func.attr}() mutates the "
                    f"'{root_name(node.func.value)}' parameter; "
                    "trace consumers must be pure — copy before "
                    "modifying",
                )
                continue
            for target in _assignment_targets(node):
                if isinstance(target, (ast.Attribute, ast.Subscript)) \
                        and root_name(target) in params:
                    yield self.finding(
                        module, node,
                        f"assignment into the "
                        f"'{root_name(target)}' parameter; trace "
                        "consumers must be pure — copy before "
                        "modifying",
                    )
