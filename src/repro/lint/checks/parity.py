"""Cross-module parity rules: DET005, PAR001, TRACE002.

These are the hazards a per-file pass cannot see — each one is a way
the serial==parallel bit-identity contract breaks *between* modules:

* **DET005** — a function of the package writes module-level mutable
  state, its own module's or (through an import) another's.  Serially
  that state accumulates across tests in one process; under the fleet
  each worker gets a fresh copy, so shard output diverges from the
  serial run.  No reachability argument excuses a write: code that is
  unreachable from a campaign today is one call away tomorrow, so the
  few import-time registries carry a line waiver saying why.
* **PAR001** — a lambda, closure, or other non-module-level callable
  crosses the process boundary.  ``pickle`` refuses closures, so this
  is a latent crash under ``spawn`` even if ``fork`` happens to work.
* **TRACE002** — a trace/operation record is mutated *after* being
  emitted through an observer hook or pipe, directly or via a callee
  that mutates its parameter.  Live observers see the pre- or
  post-mutation value depending on scheduling; analysis of the
  finished trace always sees the final one — an instant feed-parity
  break.

All three operate on the :class:`~repro.lint.graph.ProjectModel`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.graph import CallEdge, ProjectModel
from repro.lint.rules import ProjectRule, register_rule
from repro.lint.summaries import FunctionSummary, ModuleSummary

__all__ = [
    "GlobalWriteRule",
    "UnpicklableBoundaryRule",
    "MutationAfterEmissionRule",
]

#: Executor/pool method names that ship their arguments to another
#: process, recognised structurally (no import needed to spell them).
_BOUNDARY_METHODS = frozenset({
    "Process", "submit", "apply_async", "map_async",
    "starmap", "imap", "imap_unordered",
})

#: ``map``/``apply`` are too generic to trust on any receiver; only
#: flag them when the receiver name says pool/executor/context.
_POOLISH_ROOTS = ("pool", "executor", "ctx", "context")


@register_rule
class GlobalWriteRule(ProjectRule):
    """DET005: module-level mutable state written by a function."""

    code = "DET005"
    name = "global-write"
    severity = Severity.ERROR
    summary = (
        "forbids any function of the package writing module-level "
        "mutable state"
    )
    rationale = (
        "A module global written by a function is process memory: "
        "serial runs accumulate it across every test, fleet workers "
        "each start from a fresh copy — the canonical way shard "
        "output silently diverges from the serial baseline."
    )

    def check_project(self, model: ProjectModel) -> Iterable[Finding]:
        for fid, fn in sorted(model.functions.items()):
            if not model.config.in_package(fn.module):
                continue
            summary = model.modules[fn.module]
            for write in fn.global_writes:
                target = self._write_target(model, summary, write)
                if target is None:
                    continue
                yield self.project_finding(
                    summary.path, write.line, write.col,
                    f"{target} ({write.how}) in '{fn.qualname}' — "
                    f"state written here diverges between serial and "
                    f"fleet runs",
                )

    @staticmethod
    def _write_target(model: ProjectModel, summary: ModuleSummary,
                      write) -> str | None:
        """Describe the module-level target of ``write``, if any."""
        if write.how == "rebinding via 'global'":
            return f"rebinds module global '{write.name}'"
        if write.name in summary.mutable_globals:
            return (f"mutates module-level mutable "
                    f"'{summary.module}.{write.name}'")
        if write.name in summary.classes:
            return (f"writes class-level state on "
                    f"'{summary.module}.{write.name}'")
        origin = summary.imports.get(write.name)
        if origin is None:
            return None
        parts = origin.split(".")
        # ``import pkg.mod as m`` + ``m.CACHE.append``: the mutable is
        # the first attribute; ``from pkg.mod import CACHE``: the
        # mutable is the imported name itself.
        owner_mod, attr = origin, write.attr
        if origin not in model.modules and len(parts) > 1:
            owner_mod, attr = ".".join(parts[:-1]), parts[-1]
        owner = model.modules.get(owner_mod)
        if owner is None or attr is None:
            return None
        if attr in owner.mutable_globals:
            return (f"mutates module-level mutable "
                    f"'{owner.module}.{attr}' of another module")
        if attr in owner.imports:
            # One re-export hop (pkg/__init__ re-exporting a table).
            origin2 = owner.imports[attr]
            parts2 = origin2.split(".")
            if len(parts2) > 1:
                owner2 = model.modules.get(".".join(parts2[:-1]))
                if owner2 is not None and \
                        parts2[-1] in owner2.mutable_globals:
                    return (f"mutates module-level mutable "
                            f"'{owner2.module}.{parts2[-1]}' of "
                            f"another module")
        return None


@register_rule
class UnpicklableBoundaryRule(ProjectRule):
    """PAR001: unpicklable-by-construction values crossing a pipe."""

    code = "PAR001"
    name = "unpicklable-boundary"
    severity = Severity.ERROR
    summary = (
        "forbids lambdas, closures, and other non-module-level "
        "callables in arguments that cross the process boundary"
    )
    rationale = (
        "Everything handed to multiprocessing (worker targets, pool "
        "tasks, fleet jobs) is pickled in the child under spawn; "
        "lambdas, nested functions, and generator expressions are "
        "unpicklable by construction, so they crash the fleet exactly "
        "on the platforms CI does not exercise."
    )

    def check_project(self, model: ProjectModel) -> Iterable[Finding]:
        for fid, fn in sorted(model.functions.items()):
            summary = model.modules[fn.module]
            for call in fn.calls:
                restriction = self._boundary_args(model, call)
                if restriction is None:
                    continue
                for arg in call.args:
                    if restriction and arg.keyword not in restriction:
                        continue
                    what = self._unpicklable(fn, arg)
                    if what is None:
                        continue
                    slot = (f"argument {arg.position}"
                            if arg.keyword is None
                            else f"argument '{arg.keyword}'")
                    yield self.project_finding(
                        summary.path, arg.line, arg.col,
                        f"{what} passed as {slot} of boundary call "
                        f"'{call.chain}()' in '{fn.qualname}' — "
                        f"unpicklable under the spawn start method",
                    )

    @staticmethod
    def _boundary_args(model: ProjectModel,
                       call) -> tuple[str, ...] | None:
        """Boundary spec for ``call``: ``None`` (not a boundary), ``()``
        (all arguments cross), or the crossing keyword names."""
        if call.resolved is not None:
            spec = model.config.pipe_boundary(call.resolved)
            if spec is not None:
                return spec
        if call.method in _BOUNDARY_METHODS:
            return ()
        if call.method in ("map", "apply") and call.root is not None:
            root = call.root.lower()
            if any(tag in root for tag in _POOLISH_ROOTS):
                return ()
        return None

    @staticmethod
    def _unpicklable(fn: FunctionSummary, arg) -> str | None:
        if arg.kind == "lambda":
            return "a lambda"
        if arg.kind == "genexp":
            return "a generator expression"
        if arg.kind == "name" and arg.name is not None:
            bound = fn.local_callables.get(arg.name)
            if bound == "lambda":
                return f"'{arg.name}' (bound to a lambda)"
            if bound == "nested":
                return (f"'{arg.name}' (a nested function — a closure "
                        f"over locals)")
        return None


@register_rule
class MutationAfterEmissionRule(ProjectRule):
    """TRACE002: records mutated after emission to an observer/pipe."""

    code = "TRACE002"
    name = "mutation-after-emission"
    severity = Severity.ERROR
    summary = (
        "forbids mutating a record after emitting it through an "
        "observer hook or pipe, directly or via a mutating callee"
    )
    rationale = (
        "An emitted record is shared with every observer the moment "
        "the hook returns: the streaming engine may already have "
        "folded it into online state while analysis of the finished "
        "trace sees the post-mutation value — the feed-parity gate "
        "then fails (or worse, silently compares different data)."
    )

    def check_project(self, model: ProjectModel) -> Iterable[Finding]:
        emit_methods = frozenset(model.config.emit_methods)
        for fid, fn in sorted(model.functions.items()):
            summary = model.modules[fn.module]
            yield from self._check_function(
                model, summary, fid, fn, emit_methods)

    def _check_function(self, model: ProjectModel,
                        summary: ModuleSummary, fid: str,
                        fn: FunctionSummary,
                        emit_methods: frozenset[str]
                        ) -> Iterator[Finding]:
        emissions: list[tuple[int, int, str, str]] = []
        for call in fn.calls:
            method = call.method
            if method is None and call.resolved is not None and \
                    "." in call.resolved:
                method = call.resolved.rsplit(".", 1)[-1]
            if method not in emit_methods:
                continue
            for arg in call.args:
                if arg.kind == "name" and arg.name is not None:
                    emissions.append(
                        (call.line, call.col, arg.name, method))
        if not emissions:
            return

        reported: set[tuple[int, int, str]] = set()

        def report(line: int, col: int, name: str,
                   message: str) -> Iterator[Finding]:
            key = (line, col, name)
            if key in reported:
                return
            reported.add(key)
            yield self.project_finding(summary.path, line, col, message)

        for e_line, e_col, name, method in emissions:
            for mutation in fn.mutations:
                if mutation.name != name:
                    continue
                if (mutation.line, mutation.col) <= (e_line, e_col):
                    continue
                yield from report(
                    mutation.line, mutation.col, name,
                    f"'{name}' is mutated ({mutation.how}) after "
                    f"being emitted via .{method}() at line {e_line} "
                    f"in '{fn.qualname}' — observers already hold "
                    f"this record",
                )
            for edge in model.call_edges.get(fid, ()):
                if (edge.call.line, edge.call.col) <= (e_line, e_col):
                    continue
                culprit = self._mutating_callee(model, fn, edge, name)
                if culprit is None:
                    continue
                yield from report(
                    edge.call.line, edge.call.col, name,
                    f"'{name}' (emitted via .{method}() at line "
                    f"{e_line}) is passed to '{edge.callee}', which "
                    f"mutates parameter '{culprit}' — observers "
                    f"already hold this record",
                )

    @staticmethod
    def _mutating_callee(model: ProjectModel, fn: FunctionSummary,
                         edge: CallEdge, name: str) -> str | None:
        callee = model.functions.get(edge.callee)
        if callee is None:
            return None
        callee_mutates = model.mutates_param.get(edge.callee,
                                                 frozenset())
        if not callee_mutates:
            return None
        for arg in edge.call.args:
            if arg.kind != "name" or arg.name != name:
                continue
            if arg.keyword is not None:
                target = arg.keyword
            else:
                index = arg.position + edge.offset
                if index >= len(callee.params):
                    continue
                target = callee.params[index]
            if target in callee_mutates:
                return target
        return None
