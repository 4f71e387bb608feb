"""Determinism rules: DET001, DET002, DET003.

The simulator's contract (see ``docs/lint.md`` and the module docstring
of :mod:`repro.sim.random_source`) is that a campaign is a pure
function of ``(seed, config)``.  These rules catch the three ways that
contract has historically been broken in measurement harnesses:
ambient randomness, ambient time, and an order taken out of an
unordered collection (iterated, materialized, or folded into an
order-sensitive reduction).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.rules import ModuleContext, Rule, register_rule, root_name

__all__ = [
    "DirectRandomRule",
    "WallClockRule",
    "UnorderedOrderRule",
]


@register_rule
class DirectRandomRule(Rule):
    """DET001 — no direct use of the global ``random`` module.

    Flags ``import random`` / ``from random import ...`` and any
    ``random.<attr>`` access, everywhere except the configured
    allowlist (by default :mod:`repro.sim.random_source`, the one
    module whose job is to wrap ``random.Random`` in named streams).
    """

    code = "DET001"
    name = "direct-random"
    severity = Severity.ERROR
    summary = ("use RandomSource streams, never the 'random' module "
               "directly")
    rationale = (
        "Draws from the global 'random' module are invisible to the "
        "seed-derivation tree: they depend on interpreter-global state "
        "and on draw ordering across unrelated components, so one "
        "stray call makes every figure of a campaign irreproducible."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.config.random_allowed(module.module):
            return
        seen: set[tuple[int, int]] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield self.finding(
                            module, node,
                            "direct import of the 'random' module; "
                            "draw from repro.sim.random_source."
                            "RandomSource streams instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module and \
                        node.module.split(".")[0] == "random":
                    yield self.finding(
                        module, node,
                        "import from the 'random' module; draw from "
                        "repro.sim.random_source.RandomSource streams "
                        "instead",
                    )
            elif isinstance(node, ast.Attribute):
                if (isinstance(node.value, ast.Name)
                        and node.value.id == "random"):
                    key = (node.lineno, node.col_offset)
                    if key not in seen:
                        seen.add(key)
                        yield self.finding(
                            module, node,
                            f"use of random.{node.attr}; route this "
                            "draw through a RandomSource stream",
                        )


#: Callables (resolved to dotted origin names) that read the wall
#: clock or the OS entropy pool.
_BANNED_CALLABLES = {
    "time.time": "wall-clock read",
    "time.time_ns": "wall-clock read",
    "time.monotonic": "host-monotonic clock read",
    "time.monotonic_ns": "host-monotonic clock read",
    "time.perf_counter": "host-performance counter read",
    "time.perf_counter_ns": "host-performance counter read",
    "time.localtime": "wall-clock read",
    "time.gmtime": "wall-clock read",
    "datetime.datetime.now": "wall-clock read",
    "datetime.datetime.utcnow": "wall-clock read",
    "datetime.datetime.today": "wall-clock read",
    "datetime.date.today": "wall-clock read",
    "os.urandom": "OS entropy read",
    "os.getrandom": "OS entropy read",
    "uuid.uuid1": "host/time-derived UUID",
    "uuid.uuid4": "entropy-derived UUID",
}

#: Anything taken from these modules is banned wholesale.
_BANNED_MODULE_PREFIXES = ("secrets.",)


def _resolve_chain(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Resolve a name/attribute chain to a dotted origin name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    origin = aliases.get(node.id, node.id)
    parts.append(origin)
    return ".".join(reversed(parts))


@register_rule
class WallClockRule(Rule):
    """DET002 — no wall-clock or entropy reads in the package.

    Any *reference* that alias-resolves to a host-time callable
    (``time.time``, ``datetime.now``, ...) or an OS-entropy one
    (``os.urandom``, ``uuid.uuid4``, ``secrets.*``) is flagged — called
    on the spot, bound to a name (``clock = time.time``) or handed over
    as a default or argument (``now_fn=time.monotonic``): the reference
    is where host time enters, whoever calls it later.  The simulator's
    virtual clock (``Simulator.now`` / ``DriftingClock``) is the only
    admissible notion of time; the host-side shells that legitimately
    need a deadline or a rate limiter carry a line waiver saying so.
    """

    code = "DET002"
    name = "wall-clock"
    severity = Severity.ERROR
    summary = ("package code must use the virtual clock, never host "
               "time or OS entropy")
    rationale = (
        "The divergence windows of Figs. 9-10 are measured in virtual "
        "time; a host-clock or entropy read couples results to the "
        "machine and the wall, so two runs of the same seed stop "
        "agreeing bit-for-bit."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.config.in_package(module.module):
            return
        aliases = module.aliases
        for node in ast.walk(module.tree):
            if not (isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load)):
                continue
            resolved = _resolve_chain(node, aliases)
            if resolved is None:
                continue
            reason = _BANNED_CALLABLES.get(resolved)
            if reason is None and resolved.startswith(
                    _BANNED_MODULE_PREFIXES):
                reason = "OS entropy read"
            if reason is not None:
                yield self.finding(
                    module, node,
                    f"{resolved} is a {reason}; package code must "
                    "take time from the Simulator clock and "
                    "randomness from RandomSource",
                )


# -- DET003: sources x sinks ---------------------------------------------


def _unordered_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
                "difference", "union", "intersection",
                "symmetric_difference"):
            return True
    return False


def _shard_keyed_view(node: ast.AST) -> bool:
    """A ``.values()``/``.keys()``/``.items()`` view of a shard dict.

    Shard-keyed dicts are filled in completion order by the fleet
    executor, so their view order is a worker-scheduling artifact;
    the receiver is recognized by name (any root identifier
    containing "shard").
    """
    if not (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("values", "keys", "items")):
        return False
    root = root_name(node.func.value)
    return root is not None and "shard" in root.lower()


def _unordered_source(node: ast.AST) -> str | None:
    """Why ``node`` has no seed-stable order (None = it does, as far
    as the syntax shows)."""
    if _unordered_set_expr(node):
        return "an unordered set expression"
    if _shard_keyed_view(node):
        return "a shard-keyed dict view"
    return None


#: Calls that take an order out of their first argument (resolved to
#: dotted origin names, import aliases honoured): the materializers,
#: and the reductions whose float result depends on accumulation order.
#: ``sorted`` / ``min`` / ``max`` / ``len`` / ``any`` / ``all`` /
#: ``set`` / ``frozenset`` are order-insensitive and stay exempt.
_ORDER_TAKING_CALLS = frozenset({
    "list", "tuple", "enumerate", "zip", "iter", "dict.fromkeys",
    "sum",
    "math.fsum",
    "statistics.mean",
    "statistics.fmean",
    "statistics.geometric_mean",
    "statistics.harmonic_mean",
    "statistics.stdev",
    "statistics.pstdev",
    "statistics.variance",
    "statistics.pvariance",
})

#: Calls whose result does not depend on the order of what is
#: star-unpacked into them.
_ORDER_FREE_CALLS = frozenset({
    "sorted", "min", "max", "len", "any", "all", "set", "frozenset"})


def _order_sinks(node: ast.AST, aliases: dict[str, str]
                 ) -> Iterator[tuple[str, ast.AST]]:
    """The sink table: ``(shape, operand)`` for every place ``node``
    takes an order out of ``operand``."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        yield "iteration", node.iter
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)):
        for generator in node.generators:
            yield "iteration", generator.iter
    elif isinstance(node, (ast.List, ast.Tuple)):
        for element in node.elts:
            if isinstance(element, ast.Starred):
                yield "star-unpacking", element.value
    elif isinstance(node, ast.Call):
        resolved = _resolve_chain(node.func, aliases)
        if resolved not in _ORDER_FREE_CALLS:
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    yield "star-unpacking", arg.value
        func = node.func
        if node.args and resolved in _ORDER_TAKING_CALLS:
            yield f"{resolved.rsplit('.', 1)[-1]}()", node.args[0]
        elif node.args and isinstance(func, ast.Attribute) \
                and func.attr == "join":
            yield "join()", node.args[0]
        elif isinstance(func, ast.Attribute) and func.attr == "pop" \
                and not node.args:
            yield "pop()", func.value


@register_rule
class UnorderedOrderRule(Rule):
    """DET003 — no order taken out of an unordered collection.

    One hazard, one table.  *Sources*: a set literal, set
    comprehension, ``set()`` / ``frozenset()`` call or set-algebra
    method call, and a ``.values()`` / ``.keys()`` / ``.items()`` view
    of a shard-keyed dict (receiver name containing "shard", filled in
    worker-completion order).  *Sinks*: iteration (``for`` loops and
    comprehension generators), the materializers ``list`` / ``tuple``
    / ``enumerate`` / ``zip`` / ``iter`` / ``dict.fromkeys`` /
    ``.join``, star-unpacking into a display or a call, ``.pop()`` on
    a set expression, and the order-sensitive reductions (``sum``,
    ``math.fsum``, ``statistics.mean`` / ``stdev`` / ..., import
    aliases resolved).  Any source in any sink position is a finding;
    wrap the source in ``sorted(...)`` to pin the order.

    This is a syntactic heuristic: a *variable* that happens to hold a
    set cannot be seen without type inference, so keeping set-typed
    state out of scheduling and merge paths remains a review concern;
    the rule catches the inline cases that actually appear.  (Retired
    codes DET004 and DET006 were this hazard's reduction and
    materialization halves; they are not reused.)
    """

    code = "DET003"
    name = "unordered-order"
    severity = Severity.ERROR
    summary = ("no iteration, materialization or order-sensitive "
               "reduction over an unordered collection")
    rationale = (
        "Set iteration order depends on insertion history and string "
        "hashing, and a shard-keyed dict fills in worker-completion "
        "order; an order taken from either feeds event scheduling, "
        "emitted values or non-associative float sums, so two runs of "
        "the same seed — or the serial and the fleet run — stop "
        "agreeing bit-for-bit even though no explicit randomness was "
        "used and every input value is identical."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not module.config.in_package(module.module):
            return
        for node in ast.walk(module.tree):
            for shape, operand in _order_sinks(node, module.aliases):
                reason = _unordered_source(operand)
                if reason is None:
                    continue
                # Iteration anchors at the iterable, calls at the call.
                anchor = node if isinstance(node, ast.Call) else operand
                yield self.finding(
                    module, anchor,
                    f"{shape} over {reason} takes a hash- or "
                    "completion-order out of it; wrap it in "
                    "sorted(...) or reduce over an explicitly "
                    "ordered sequence",
                )
