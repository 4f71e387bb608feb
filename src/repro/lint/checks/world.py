"""Partitioned-world rule: DET007.

The world engine's byte-identity contract (``shards=1`` and
``shards=N`` produce bit-identical signatures, see
:mod:`repro.world.engine`) rests on one structural invariant: within
an epoch a replica touches nothing but its own state, and every
cross-replica effect travels as a :class:`~repro.world.bus.WorldBus`
message sequenced in the bus's lamport total order at the barrier.
Code that reaches *through* a shard/replica collection — e.g.
``self._replicas[target].feeds`` — side-steps that total order: the
effect lands whenever the accessing shard happens to run, so the
world's history starts depending on the physical partitioning.

DET007 machine-checks the invariant.  Inside the configured
``world-scopes`` packages (default :mod:`repro.world`) it flags any
attribute access hanging off a subscript of a shard-named collection
(name containing ``shard``, ``replica``, or ``sim``), except in the
``world-bus-modules`` (default the bus itself and the engine — the
barrier sequencer is the one legitimate place that touches every
shard).

Like DET003 this is a syntactic heuristic: an aliased
collection (``peer = self._replicas[i]``) cannot be seen without type
inference.  It catches the direct-reach shape that actually appears
when someone "optimizes" a bus send into a neighbour poke.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.rules import ModuleContext, Rule, register_rule

__all__ = ["CrossShardAccessRule"]

#: Identifier fragments that mark a collection as holding per-shard
#: state (the world engine's own vocabulary: shard lists, replica
#: lists, per-shard simulators).
_SHARD_TAGS = ("shard", "replica", "sim")


def _collection_name(node: ast.AST) -> str | None:
    """The name of the subscripted collection itself.

    ``self._replicas[i]`` → ``"_replicas"``; ``shards[i]`` →
    ``"shards"``.  Unlike :func:`~repro.lint.rules.root_name` this
    wants the *nearest* identifier, not the chain root (which would be
    ``self``).
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@register_rule
class CrossShardAccessRule(Rule):
    """DET007 — no cross-shard state access outside the world bus."""

    code = "DET007"
    name = "cross-shard-access"
    severity = Severity.ERROR
    summary = (
        "world-scope code must route cross-shard effects through the "
        "WorldBus, never reach through a shard/replica collection"
    )
    rationale = (
        "The partitioned world is byte-identical across shard counts "
        "only because every cross-replica effect is a bus message "
        "sequenced in the bus's lamport total order at the epoch "
        "barrier; reading or mutating another shard's state through a "
        "shard collection applies the effect in physical execution "
        "order instead, so the world's history starts depending on "
        "how replicas were partitioned — exactly what "
        "tools/gates.py world exists to rule out."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        config = module.config
        if not config.in_world_scope(module.module):
            return
        if config.is_world_bus_module(module.module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if not isinstance(node.value, ast.Subscript):
                continue
            name = _collection_name(node.value.value)
            if name is None:
                continue
            lowered = name.lower()
            if not any(tag in lowered for tag in _SHARD_TAGS):
                continue
            yield self.finding(
                module, node,
                f"reach through '{name}[...]' for '.{node.attr}' — "
                "cross-shard state access bypasses the world bus "
                "total order; send a WorldBus message instead",
            )
