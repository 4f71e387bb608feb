"""Lowering a declarative scenario onto the world engine.

``topology.shards = N`` in a scenario file is the DSL's doorway into
the partitioned world: the loader reads a ``[topology]`` table straight
into a :class:`~repro.world.spec.WorldSpec`, and
:func:`world_from_scenario` names it after the
:class:`~repro.scenario.schema.ScenarioSpec` for
:func:`~repro.world.engine.run_world` to execute.  Only the gossip
archetype lowers today — the world's propagation model *is* rumor
relay with author-sharded fanout, so other archetypes would silently
misrepresent their scenario.

The physical knob (``shards``) may be overridden at the
call site (CLI ``--shards``, the parity harness) without touching the
scenario's logical identity; overriding ``sessions`` rescales the
world for smoke runs.

A world runs its ``[topology]`` and nothing else of the campaign
scenario: a ``[service.params]`` key, a ``[workload]`` key, a
``[[nemesis]]``, ``[policy]`` or ``[calibrate]`` table, or a
``metrics`` list would change nothing it measures, so loading one
fails closed instead of being silently ignored.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.world.spec import WorldPartition, WorldSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scenario.schema import ScenarioSpec

__all__ = ["world_from_scenario"]


def world_from_scenario(
    scenario: ScenarioSpec,
    *,
    shards: int | None = None,
    sessions: int | None = None,
    partitions: tuple[WorldPartition, ...] = (),
) -> WorldSpec:
    """Build the :class:`WorldSpec` a scenario's ``[topology]`` asks for."""
    topology = scenario.topology
    if topology is None:
        raise ConfigurationError(
            f"scenario {scenario.name!r} has no [topology] table; "
            "add one (topology.shards = N) to run it as a sharded "
            "world"
        )
    if scenario.service.archetype != "gossip":
        raise ConfigurationError(
            f"scenario {scenario.name!r} uses archetype "
            f"{scenario.service.archetype!r}; the world engine lowers "
            "the gossip archetype only"
        )
    unlowered = _unlowered(scenario)
    if unlowered is not None:
        raise ConfigurationError(
            f"scenario {scenario.name!r} sets {unlowered}, which the "
            "world engine does not lower: a world runs its [topology] "
            "only"
        )
    return replace(
        topology, name=scenario.name, partitions=partitions,
        shards=topology.shards if shards is None else shards,
        sessions=topology.sessions if sessions is None else sessions,
    )


def _unlowered(scenario: ScenarioSpec) -> str | None:
    """The first key or table of ``scenario`` a world would ignore."""
    if scenario.service.params:
        return f"service.params.{scenario.service.params[0][0]}"
    for spec_field in fields(scenario.workload):
        if getattr(scenario.workload, spec_field.name) != \
                spec_field.default:
            return f"workload.{spec_field.name}"
    if scenario.nemeses:
        return "[[nemesis]]"
    if scenario.policy is not None:
        return "[policy]"
    if scenario.calibration is not None:
        return "[calibrate]"
    if scenario.metrics:
        return "metrics"
    return None
