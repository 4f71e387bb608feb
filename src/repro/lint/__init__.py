"""``repro.lint`` — AST-based determinism & trace-safety linter.

Every number this reproduction emits — the anomaly prevalences of
Figs. 3-8, the divergence-window CDFs of Figs. 9-10 — is trustworthy
only because the simulator is bit-for-bit deterministic under a seed
and the anomaly checkers are pure observers.  One stray
``random.random()``, wall-clock read, hash-ordered iteration, or
in-place trace mutation silently invalidates a whole campaign without
failing a single test.  This package machine-enforces that contract.

There is one mode: every run checks each module in isolation *and*
links all of them into a call graph for the cross-module half of the
serial==parallel contract.  The scope of every scoped rule is the
``repro`` package itself — a module added tomorrow is checked by
default — and an exemption is a waiver written at the exempt line.

Shipped rules (see ``docs/lint.md`` or ``--list-rules`` for detail):

========  ====================================================
Code      Forbids
========  ====================================================
DET001    direct use of the ``random`` module outside
          :mod:`repro.sim.random_source` (any linted file)
DET002    any reference to a wall-clock/entropy callable in the
          package
DET003    an order taken out of an unordered collection in the
          package: iteration, materialization, star-unpacking,
          ``.pop()``, order-sensitive reductions
DET005    a function of the package writing module-level mutable
          state
DET007    cross-shard state access bypassing the world message
          bus in :mod:`repro.world`
PAR001    lambdas/closures crossing the process boundary (any
          linted file)
TRACE001  a function of the package mutating the trace it is
          given
TRACE002  mutating a record after emitting it to an observer or
          pipe, directly or through a callee (any linted file)
========  ====================================================

(DET004, DET006 and API001 are retired codes and are not reused.)

A finding is waived only by ``# repro-lint: disable=CODE`` on its own
line, with the reason in prose on or directly above it; waived findings
are printed on every run.  There is no configuration file: the
defaults of :class:`LintConfig` are the contract CI enforces.

Run it as ``repro-consistency lint``, ``python -m repro.lint``, or
programmatically::

    from repro.lint import lint_paths
    result = lint_paths(["src"])
    assert result.ok, result.findings
"""

from repro.lint.config import LintConfig
from repro.lint.engine import (
    LintEngine,
    LintResult,
    lint_paths,
    module_name,
)
from repro.lint.findings import Finding, Severity
from repro.lint.graph import ProjectModel, build_project_model
from repro.lint.rules import (
    ProjectRule,
    Rule,
    all_rules,
    get_rule,
    rule_codes,
)
from repro.lint.summaries import (
    FunctionSummary,
    ModuleSummary,
    summarize_module,
)

__all__ = [
    "LintConfig",
    "LintEngine",
    "LintResult",
    "lint_paths",
    "module_name",
    "Finding",
    "Severity",
    "Rule",
    "ProjectRule",
    "all_rules",
    "get_rule",
    "rule_codes",
    "ProjectModel",
    "build_project_model",
    "ModuleSummary",
    "FunctionSummary",
    "summarize_module",
]
