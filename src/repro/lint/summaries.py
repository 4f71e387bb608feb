"""Per-module summaries: what the cross-module rules know of a file.

The cross-module rules (:mod:`repro.lint.checks.parity`) never touch an
AST: every module is distilled here into a :class:`ModuleSummary` —
imports, module-level mutable bindings, and one
:class:`FunctionSummary` per function/method recording what the
interprocedural phase needs (global writes, call sites with argument
shapes, parameter mutations).  Summaries are pure data,
config-independent and deterministic (every collection is emitted in
source order or sorted).

The extraction is deliberately a *scope-accurate heuristic*, not a type
checker: locals are the names a function binds syntactically, a "global
write" is a mutation whose root identifier is not one of them, and call
targets are resolved through import aliases only.  The project model
(:mod:`repro.lint.graph`) layers name resolution and the
parameter-mutation fixpoint on top.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field

from repro.lint.rules import root_name

__all__ = [
    "CallArg",
    "CallSite",
    "FunctionSummary",
    "GlobalWrite",
    "ModuleSummary",
    "Mutation",
    "MUTATING_METHODS",
    "MUTABLE_CONSTRUCTORS",
    "summarize_module",
]

#: Method names that mutate built-in containers (or look like they do).
#: Shared with TRACE001 so "what counts as a mutation" has one home.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear",
    "sort", "reverse", "add", "discard", "update", "setdefault",
    "popitem", "appendleft", "popleft",
})

#: The lazy-facade helper; its table is read as the imports it stands for.
FACADE_HELPER = "repro._facade.facade"

#: Constructor calls whose result is a mutable container; a module-level
#: ``NAME = <one of these>`` is module-level mutable state.
MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "bytearray", "defaultdict", "deque",
    "Counter", "OrderedDict",
})


@dataclass(frozen=True)
class CallArg:
    """One argument at a call site, classified for the parity rules."""

    #: Positional index, or ``None`` for a keyword argument.
    position: int | None
    #: Keyword name, or ``None`` for a positional argument.
    keyword: str | None
    #: ``"lambda"`` | ``"genexp"`` | ``"name"`` | ``"other"``.
    kind: str
    #: The identifier, when ``kind == "name"``.
    name: str | None
    line: int
    col: int


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    #: The dotted chain as written (``"obj.meth"``, ``"run_fleet"``).
    chain: str
    #: Chain with the root substituted through import aliases, when the
    #: root is not a local; ``None`` for calls on locals/parameters.
    resolved: str | None
    #: Final attribute name for attribute calls on locals (method-style
    #: dispatch); ``None`` for plain-name calls.
    method: str | None
    #: Root identifier of the chain (``None`` for computed roots).
    root: str | None
    line: int
    col: int
    args: tuple[CallArg, ...] = ()


@dataclass(frozen=True)
class GlobalWrite:
    """A write to state that outlives the function invocation."""

    #: Root identifier written through (a module-level binding, an
    #: imported name, or an imported module alias).
    name: str
    #: First attribute past the root for dotted writes
    #: (``config.cache.clear()`` -> root ``config``, attr ``cache``).
    attr: str | None
    #: Human description of the write shape (``".append() call"`` ...).
    how: str
    line: int
    col: int


@dataclass(frozen=True)
class Mutation:
    """Any mutation of a root identifier (local or not) — the TRACE002
    after-emission scan orders these against emission call sites."""

    name: str
    how: str
    line: int
    col: int


@dataclass(frozen=True)
class FunctionSummary:
    """Everything phase 2 knows about one function or method."""

    module: str
    #: Dotted qualname within the module (``"Class.method"``,
    #: ``"outer.inner"`` for nested defs).
    qualname: str
    name: str
    line: int
    col: int
    is_method: bool
    #: Defined inside another function (a closure — unpicklable).
    is_nested: bool
    params: tuple[str, ...] = ()
    locals_: frozenset[str] = frozenset()
    global_writes: tuple[GlobalWrite, ...] = ()
    calls: tuple[CallSite, ...] = ()
    #: Parameters this function mutates directly.
    mutated_params: frozenset[str] = frozenset()
    mutations: tuple[Mutation, ...] = ()
    #: Local names bound to a lambda or nested def, by kind.
    local_callables: dict[str, str] = field(default_factory=dict)

    @property
    def fid(self) -> str:
        """Project-wide function id: ``module.qualname``."""
        return f"{self.module}.{self.qualname}"


@dataclass(frozen=True)
class ModuleSummary:
    """Distillation of one module."""

    module: str
    path: str
    #: Module-level import aliases: local name -> dotted origin.
    imports: dict[str, str] = field(default_factory=dict)
    #: Module-level names bound to mutable containers -> def line.
    mutable_globals: dict[str, int] = field(default_factory=dict)
    #: Module-level class names.
    classes: tuple[str, ...] = ()
    functions: dict[str, FunctionSummary] = field(default_factory=dict)


# -- Shared AST helpers --------------------------------------------------


def _chain_parts(node: ast.AST) -> tuple[list[str], str | None]:
    """Attribute chain of ``node`` as ``(parts, root)``.

    ``a.b.c`` -> (["a", "b", "c"], "a"); a chain whose root is not a
    plain name (a call result, a subscript) yields the parts seen and
    root ``None``.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts, parts[0]
    parts.reverse()
    return parts, None


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in MUTABLE_CONSTRUCTORS
    return False


def _resolve_relative(module: str, is_package: bool, level: int,
                      target: str | None) -> str | None:
    """Absolute module for a ``from ...target import`` statement."""
    if level == 0:
        return target
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = level - 1
    if drop:
        parts = parts[:-drop] if drop <= len(parts) else []
    base = ".".join(parts)
    if target:
        return f"{base}.{target}" if base else target
    return base or None


def _own_nodes(func: ast.AST):
    """Nodes of ``func``'s own scope, in source order.

    Stops at nested function/class/lambda boundaries: their bodies are
    separate scopes with their own summaries.  The nested statement
    node itself is yielded (so its *name* can be recorded) but not
    descended into.
    """
    queue = deque(ast.iter_child_nodes(func))
    while queue:
        node = queue.popleft()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        queue.extend(ast.iter_child_nodes(node))


def _arg_names(func: ast.FunctionDef | ast.AsyncFunctionDef
               ) -> list[str]:
    args = func.args
    names = [a.arg for a in (*args.posonlyargs, *args.args,
                             *args.kwonlyargs)]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _classify_arg(node: ast.AST, position: int | None,
                  keyword: str | None) -> CallArg:
    if isinstance(node, ast.Lambda):
        kind, name = "lambda", None
    elif isinstance(node, ast.GeneratorExp):
        kind, name = "genexp", None
    elif isinstance(node, ast.Name):
        kind, name = "name", node.id
    else:
        kind, name = "other", None
    return CallArg(
        position=position, keyword=keyword, kind=kind, name=name,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
    )


# -- Function summarisation ----------------------------------------------


def _collect_defs(node: ast.AST, prefix: str, in_class: bool,
                  nested: bool, out: list) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = prefix + child.name
            out.append((qual, child, in_class, nested))
            _collect_defs(child, qual + ".", False, True, out)
        elif isinstance(child, ast.ClassDef):
            _collect_defs(child, prefix + child.name + ".",
                          True, nested, out)
        elif isinstance(child, ast.Lambda):
            continue
        else:
            _collect_defs(child, prefix, in_class, nested, out)


def _summarize_function(module: str, qualname: str,
                        func: ast.FunctionDef | ast.AsyncFunctionDef,
                        is_method: bool, is_nested: bool,
                        module_imports: dict[str, str],
                        is_package: bool) -> FunctionSummary:
    params = tuple(_arg_names(func))
    own = list(_own_nodes(func))

    declared_global: set[str] = set()
    declared_nonlocal: set[str] = set()
    locals_: set[str] = set(params)
    local_imports: dict[str, str] = {}
    local_callables: dict[str, str] = {}

    for node in own:
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Nonlocal):
            declared_nonlocal.update(node.names)
        elif isinstance(node, ast.Name) and \
                isinstance(node.ctx, (ast.Store, ast.Del)):
            locals_.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            locals_.add(node.name)
            local_callables[node.name] = "nested"
        elif isinstance(node, ast.ClassDef):
            locals_.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            locals_.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                locals_.add(local)
                local_imports[local] = (alias.name if alias.asname
                                        else alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            origin = _resolve_relative(
                module, is_package, node.level, node.module)
            for alias in node.names:
                local = alias.asname or alias.name
                locals_.add(local)
                if origin:
                    local_imports[local] = f"{origin}.{alias.name}"
        elif isinstance(node, ast.Assign) and \
                isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    local_callables[target.id] = "lambda"
    # ``nonlocal`` names are closure state of the enclosing call, not
    # module globals — scope them as locals; ``global`` names are the
    # opposite.
    locals_ |= declared_nonlocal
    locals_ -= declared_global

    imports = dict(module_imports)
    imports.update(local_imports)

    def is_local(name: str) -> bool:
        return name in locals_

    global_writes: list[GlobalWrite] = []
    calls: list[CallSite] = []
    mutated_params: set[str] = set()
    mutations: list[Mutation] = []

    def record_mutation(root: str, how: str, node: ast.AST,
                        attr: str | None) -> None:
        mutations.append(Mutation(
            name=root, how=how, line=node.lineno,
            col=node.col_offset,
        ))
        if root in params:
            mutated_params.add(root)
        elif not is_local(root):
            global_writes.append(GlobalWrite(
                name=root, attr=attr, how=how, line=node.lineno,
                col=node.col_offset,
            ))

    def chain_attr(parts: list[str]) -> str | None:
        """First attribute past the root, for dotted writes."""
        return parts[1] if len(parts) > 1 else None

    for node in own:
        if isinstance(node, ast.Call):
            parts, root = _chain_parts(node.func)
            chain = ".".join(parts)
            resolved: str | None = None
            method: str | None = None
            if root is None:
                method = parts[-1] if parts else None
            elif is_local(root) and root not in local_imports:
                method = parts[-1] if len(parts) > 1 else None
            else:
                mapped = imports.get(root, root)
                resolved = ".".join([mapped] + parts[1:])
            args = [
                _classify_arg(arg, index, None)
                for index, arg in enumerate(node.args)
                if not isinstance(arg, ast.Starred)
            ] + [
                _classify_arg(kw.value, None, kw.arg)
                for kw in node.keywords if kw.arg is not None
            ]
            calls.append(CallSite(
                chain=chain, resolved=resolved, method=method,
                root=root, line=node.lineno, col=node.col_offset,
                args=tuple(args),
            ))
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr in MUTATING_METHODS:
                parts_v, root_v = _chain_parts(node.func.value)
                if root_v is not None:
                    record_mutation(
                        root_v, f".{node.func.attr}() call", node,
                        chain_attr(parts_v))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                               ast.Delete)):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.Delete):
                targets = node.targets
            else:
                targets = [node.target]
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    parts_t, root_t = _chain_parts(
                        target.value if isinstance(target, ast.Subscript)
                        else target)
                    root_t = root_t or root_name(target)
                    if root_t is None:
                        continue
                    how = ("item assignment"
                           if isinstance(target, ast.Subscript)
                           else "attribute assignment")
                    if isinstance(node, ast.Delete):
                        how = "del of an item/attribute"
                    record_mutation(root_t, how, node,
                                    chain_attr(parts_t))
                elif isinstance(target, ast.Name) and \
                        target.id in declared_global:
                    global_writes.append(GlobalWrite(
                        name=target.id, attr=None,
                        how="rebinding via 'global'",
                        line=node.lineno, col=node.col_offset,
                    ))
                    mutations.append(Mutation(
                        name=target.id, how="rebinding via 'global'",
                        line=node.lineno, col=node.col_offset,
                    ))

    calls.sort(key=lambda c: (c.line, c.col))
    mutations.sort(key=lambda m: (m.line, m.col))
    global_writes.sort(key=lambda w: (w.line, w.col))
    return FunctionSummary(
        module=module, qualname=qualname, name=func.name,
        line=func.lineno, col=func.col_offset,
        is_method=is_method, is_nested=is_nested,
        params=params, locals_=frozenset(locals_),
        global_writes=tuple(global_writes), calls=tuple(calls),
        mutated_params=frozenset(mutated_params),
        mutations=tuple(mutations),
        local_callables=dict(sorted(local_callables.items())),
    )


def _facade_exports(node: ast.stmt, imports: dict[str, str],
                    module: str, is_package: bool
                    ) -> list[tuple[str, str]]:
    """``(name, dotted origin)`` for each name a facade table exports.

    A module-level ``... = facade(__name__, {".mod": ("name", ...)})``
    (:mod:`repro._facade`) stands for ``from .mod import name``.
    """
    if not (isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and len(node.value.args) == 2
            and isinstance(node.value.args[1], ast.Dict)):
        return []
    parts, root = _chain_parts(node.value.func)
    if root is None or ".".join(
            [imports.get(root, root)] + parts[1:]) != FACADE_HELPER:
        return []
    exports = []
    table = node.value.args[1]
    for key, names in zip(table.keys, table.values):
        if not (isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(names, ast.Tuple)):
            continue
        target = key.value.lstrip(".")
        origin = _resolve_relative(module, is_package,
                                   len(key.value) - len(target), target)
        for name in names.elts:
            if isinstance(name, ast.Constant) and \
                    isinstance(name.value, str):
                exports.append((name.value, f"{origin}.{name.value}"))
    return exports


def summarize_module(tree: ast.Module, module: str, path: str,
                     is_package: bool = False) -> ModuleSummary:
    """Distill one parsed module into its summary."""
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = (alias.name if alias.asname
                          else alias.name.split(".")[0])
                imports.setdefault(local, origin)
        elif isinstance(node, ast.ImportFrom):
            origin = _resolve_relative(
                module, is_package, node.level, node.module)
            if origin is None:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                imports.setdefault(local, f"{origin}.{alias.name}")

    for node in tree.body:
        for name, origin in _facade_exports(node, imports, module,
                                            is_package):
            imports.setdefault(name, origin)

    mutable_globals: dict[str, int] = {}
    classes: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_mutable_value(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    mutable_globals.setdefault(target.id, node.lineno)
        elif isinstance(node, ast.AnnAssign) and node.value is not None \
                and _is_mutable_value(node.value) and \
                isinstance(node.target, ast.Name):
            mutable_globals.setdefault(node.target.id, node.lineno)
        elif isinstance(node, ast.ClassDef):
            classes.append(node.name)

    collected: list = []
    _collect_defs(tree, "", False, False, collected)
    functions: dict[str, FunctionSummary] = {}
    for qualname, func, in_class, nested in collected:
        functions[qualname] = _summarize_function(
            module, qualname, func, in_class, nested, imports,
            is_package,
        )

    return ModuleSummary(
        module=module, path=path, imports=imports,
        mutable_globals=mutable_globals, classes=tuple(classes),
        functions=functions,
    )
