"""Lowering a declarative scenario onto the world engine.

``topology.shards = N`` in a scenario file is the DSL's doorway into
the partitioned world: :func:`world_from_scenario` translates a
:class:`~repro.scenario.schema.ScenarioSpec` carrying a ``[topology]``
table into a :class:`~repro.world.spec.WorldSpec`, which
:func:`~repro.world.engine.run_world` executes.  Only the gossip
archetype lowers today — the world's propagation model *is* rumor
relay with author-sharded fanout, so other archetypes would silently
misrepresent their scenario.

The physical knob (``shards``) may be overridden at the
call site (CLI ``--shards``, the parity harness) without touching the
scenario's logical identity; overriding ``sessions`` rescales the
world for smoke runs.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.scenario.schema import ScenarioSpec
from repro.world.spec import WorldPartition, WorldSpec

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
    return WorldSpec(
        name=scenario.name,
        sessions=sessions if sessions is not None
        else topology.sessions,
        replicas=topology.replicas,
        shards=shards if shards is not None else topology.shards,
        cohort_size=topology.cohort_size,
        writes_per_session=topology.writes_per_session,
        reads_per_session=topology.reads_per_session,
        arrival_window=topology.arrival_window,
        think_median=topology.think_median,
        service_time=topology.service_time,
        hop_median=topology.hop_median,
        hop_sigma=topology.hop_sigma,
        fanout=topology.fanout,
        epoch=topology.epoch,
        partitions=partitions,
    )
