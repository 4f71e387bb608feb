"""The whole-program project model the cross-module rules query.

:func:`build_project_model` links the per-module summaries of
:mod:`repro.lint.summaries` into one queryable object:

* a **call graph** — direct calls resolved through import aliases
  (including re-exports and lazy facade tables, so
  ``repro.fleet.run_fleet`` links to
  ``repro.fleet.executor.run_fleet``), CHA-lite linking of method calls
  by name, ``Class(...)`` to ``Class.__init__``, and calls of a
  function's own nested defs,
* a transitive **parameter-mutation** fixpoint (which callees mutate
  which of their parameters, through call chains) — what lets TRACE002
  see a record mutated two call hops below the emission.

The call graph is deliberately an over-approximation (method calls link
by name across the whole project): for hazard rules, reaching too much
costs a reviewed waiver, while reaching too little hides a real
serial≠parallel divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.config import LintConfig
from repro.lint.summaries import (
    MUTATING_METHODS,
    CallSite,
    FunctionSummary,
    ModuleSummary,
)

__all__ = ["CallEdge", "ProjectModel", "build_project_model"]

#: Method names never linked by the CHA pass: container mutators and
#: dunders are overwhelmingly stdlib calls, and ``__init__`` is linked
#: through ``Class(...)`` resolution instead.
_CHA_EXCLUDED = MUTATING_METHODS

#: Re-export chains longer than this are cut (defensive; the project
#: has none deeper than two hops).
_RESOLVE_DEPTH = 6


@dataclass(frozen=True)
class CallEdge:
    """One resolved call-graph edge."""

    caller: str
    callee: str
    call: CallSite
    #: Positional-argument offset between the call site and the callee
    #: signature (1 for method/constructor calls binding ``self``).
    offset: int


@dataclass
class ProjectModel:
    """Everything the cross-module rules query."""

    config: LintConfig
    #: Dotted module name -> summary.
    modules: dict[str, ModuleSummary] = field(default_factory=dict)
    #: Function id (``module.qualname``) -> summary.
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    #: Caller fid -> outgoing edges in call-site order.
    call_edges: dict[str, tuple[CallEdge, ...]] = field(
        default_factory=dict)
    #: fid -> parameters it mutates, directly or through callees.
    mutates_param: dict[str, frozenset[str]] = field(default_factory=dict)


def _project_module_of(model_modules: dict[str, ModuleSummary],
                       dotted: str) -> str | None:
    """Longest prefix of ``dotted`` that is an analyzed module."""
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        candidate = ".".join(parts[:end])
        if candidate in model_modules:
            return candidate
    return None


def _resolve_dotted(modules: dict[str, ModuleSummary], dotted: str,
                    depth: int = 0) -> list[tuple[str, int]]:
    """Resolve a dotted reference to ``[(fid, offset)]``.

    ``offset`` is 0 for plain functions/methods and 1 for class
    constructors (``Class(...)`` binds ``self`` of ``__init__``).
    Follows re-export aliases (``from .executor import run_fleet`` in a
    package ``__init__``) up to ``_RESOLVE_DEPTH`` hops.
    """
    if depth > _RESOLVE_DEPTH:
        return []
    owner = _project_module_of(modules, dotted)
    if owner is None:
        return []
    summary = modules[owner]
    rest = dotted[len(owner):].lstrip(".")
    if not rest:
        return []
    if rest in summary.functions:
        return [(f"{owner}.{rest}", 0)]
    head, _, tail = rest.partition(".")
    if not tail:
        if head in summary.classes:
            init = f"{head}.__init__"
            if init in summary.functions:
                return [(f"{owner}.{init}", 1)]
            return []
        origin = summary.imports.get(head)
        if origin is not None and origin != dotted:
            return _resolve_dotted(modules, origin, depth + 1)
        return []
    origin = summary.imports.get(head)
    if origin is not None:
        return _resolve_dotted(modules, f"{origin}.{tail}", depth + 1)
    return []


def _resolve_local_name(summary: ModuleSummary,
                        modules: dict[str, ModuleSummary],
                        name: str) -> list[tuple[str, int]]:
    """Resolve a bare module-level name inside ``summary``'s module."""
    if name in summary.functions:
        return [(f"{summary.module}.{name}", 0)]
    if name in summary.classes:
        init = f"{name}.__init__"
        if init in summary.functions:
            return [(f"{summary.module}.{init}", 1)]
        return []
    origin = summary.imports.get(name)
    if origin is not None:
        return _resolve_dotted(modules, origin, 1)
    return []


def build_project_model(summaries: dict[str, ModuleSummary],
                        config: LintConfig) -> ProjectModel:
    """Link per-module summaries into one :class:`ProjectModel`."""
    model = ProjectModel(config=config, modules=dict(summaries))

    for summary in summaries.values():
        for fn in summary.functions.values():
            model.functions[fn.fid] = fn

    # -- CHA index: method name -> defining fids -----------------------
    cha_index: dict[str, list[str]] = {}
    for fid, fn in model.functions.items():
        if not fn.is_method or fn.is_nested:
            continue
        if fn.name.startswith("__") or fn.name in _CHA_EXCLUDED:
            continue
        cha_index.setdefault(fn.name, []).append(fid)
    for fids in cha_index.values():
        fids.sort()

    # -- Call edges ----------------------------------------------------
    for fid, fn in sorted(model.functions.items()):
        summary = summaries[fn.module]
        edges: list[CallEdge] = []
        for call in fn.calls:
            if call.resolved is not None:
                if "." in call.resolved:
                    targets = _resolve_dotted(summaries, call.resolved)
                else:
                    targets = _resolve_local_name(summary, summaries,
                                                  call.resolved)
            elif call.method is not None:
                targets = [(callee, 1)
                           for callee in cha_index.get(call.method, ())]
            elif call.root in fn.local_callables and \
                    f"{fid}.{call.root}" in model.functions:
                # Bare call on a local bound to a nested def.
                targets = [(f"{fid}.{call.root}", 0)]
            else:
                targets = []
            edges.extend(
                CallEdge(caller=fid, callee=callee, call=call,
                         offset=offset)
                for callee, offset in targets)
        model.call_edges[fid] = tuple(edges)

    # -- Transitive parameter mutation ---------------------------------
    mutates: dict[str, set[str]] = {
        fid: set(fn.mutated_params)
        for fid, fn in model.functions.items()
    }
    for _round in range(20):
        changed = False
        for fid, fn in model.functions.items():
            for edge in model.call_edges.get(fid, ()):
                callee = model.functions.get(edge.callee)
                if callee is None:
                    continue
                callee_mutates = mutates.get(edge.callee, set())
                if not callee_mutates:
                    continue
                for arg in edge.call.args:
                    if arg.kind != "name" or arg.name not in fn.params:
                        continue
                    if arg.keyword is not None:
                        target_param = arg.keyword
                    else:
                        index = arg.position + edge.offset
                        if index >= len(callee.params):
                            continue
                        target_param = callee.params[index]
                    if target_param in callee_mutates and \
                            arg.name not in mutates[fid]:
                        mutates[fid].add(arg.name)
                        changed = True
        if not changed:
            break
    model.mutates_param = {fid: frozenset(params)
                           for fid, params in mutates.items()}
    return model
