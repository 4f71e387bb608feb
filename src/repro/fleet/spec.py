"""Fleet job model: expand a campaign matrix into shard jobs.

A :class:`FleetSpec` names everything a multi-campaign run varies —
services, seeds (the replicate axis), and an optional labelled
service-parameter grid (the sweep axis) — over one base
:class:`~repro.methodology.config.CampaignConfig`.  :meth:`FleetSpec.
jobs` expands the matrix, in a fixed deterministic order, into
:class:`ShardJob` instances: each shard is one full campaign, a pure
function of ``(service, config, seed)``, independent of every other
shard.  That purity is what makes the executor free to run shards in
any order on any number of workers and still merge an output
bit-identical to the serial path.

Seeds are either given explicitly or derived from a root seed with
:func:`derive_fleet_seeds`, which routes through the same
:class:`~repro.sim.random_source.RandomSource` discipline every other
consumer of randomness in this repository uses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ConfigurationError
from repro.fleet.digest import spec_digest
from repro.methodology.config import CampaignConfig

__all__ = ["ShardJob", "FleetSpec", "derive_fleet_seeds"]

#: Sentinel distinguishing "no sweep axis" from ``service_params=None``.
_NO_PARAMS = object()

_SLUG_RE = re.compile(r"[^A-Za-z0-9._-]+")


def _slug(text: str) -> str:
    """A filesystem-safe token for shard ids and store filenames."""
    return _SLUG_RE.sub("-", text).strip("-") or "x"


def derive_fleet_seeds(root_seed: int, count: int) -> tuple[int, ...]:
    """Derive ``count`` independent shard seeds from one root seed.

    Uses :meth:`RandomSource.spawn_seeds`, so fleet seeds live in the
    same stable BLAKE2b derivation tree as every in-simulation stream:
    the same ``(root_seed, count)`` always yields the same seeds, and
    distinct indices yield independent campaigns.
    """
    from repro.sim.random_source import RandomSource

    if count < 1:
        raise ConfigurationError("need at least one derived seed")
    return tuple(RandomSource(root_seed).spawn_seeds(
        "fleet.replicate", count
    ))


@dataclass(frozen=True)
class ShardJob:
    """One independently executable campaign within a fleet.

    ``index`` is the shard's position in the spec's expansion order —
    the merge key that makes fleet output ordering executor-invariant.
    ``config`` is fully resolved (seed and any sweep parameters
    already applied), so executing a shard is exactly
    ``run_campaign(service, config)``.
    """

    index: int
    shard_id: str
    service: str
    seed: int
    config: CampaignConfig
    #: Sweep label this shard belongs to; None when the spec has no
    #: parameter grid.
    label: str | None = None


@dataclass(frozen=True)
class FleetSpec:
    """The full matrix one fleet run covers.

    Expansion order is ``service × grid label × seed``, nested in that
    order; it is part of the spec's contract (the artifact store and
    the golden signature both depend on it).
    """

    services: tuple[str, ...]
    base_config: CampaignConfig = field(default_factory=CampaignConfig)
    seeds: tuple[int, ...] = (0,)
    #: Ordered ``(label, service_params)`` pairs — the sweep axis.
    #: None means "no sweep": shards keep the base config's params.
    param_grid: tuple[tuple[str, Any], ...] | None = None
    #: Scenario specs backing non-built-in service names.  Usually
    #: left empty: any service name that is not built in is resolved
    #: through the scenario registry at construction and attached
    #: here, so the full scenario content (not just its name) enters
    #: ``spec_hash`` and rides pickled into workers.
    scenarios: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if not self.services:
            raise ConfigurationError("fleet spec needs at least one "
                                     "service")
        from repro.services.profiles import SERVICE_IMPORTS

        scenario_names = {spec.name for spec in self.scenarios}
        missing = [name for name in self.services
                   if name not in SERVICE_IMPORTS
                   and name not in scenario_names]
        if missing:
            from repro.scenario.registry import get_scenario

            attached = list(self.scenarios)
            unknown = []
            for name in missing:
                try:
                    attached.append(get_scenario(name))
                except ConfigurationError:
                    unknown.append(name)
            if unknown:
                raise ConfigurationError(
                    f"unknown services: {unknown}"
                )
            object.__setattr__(self, "scenarios", tuple(attached))
        names = [spec.name for spec in self.scenarios]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                "duplicate scenario names in fleet spec"
            )
        if len(set(self.services)) != len(self.services):
            raise ConfigurationError("duplicate services in fleet spec")
        if not self.seeds:
            raise ConfigurationError("fleet spec needs at least one "
                                     "seed")
        duplicates = sorted({seed for seed in self.seeds
                             if self.seeds.count(seed) > 1})
        if duplicates:
            raise ConfigurationError(
                f"duplicate seeds {duplicates}: replicates must be "
                "independent samples, or downstream statistics "
                "double-count the same campaign"
            )
        if self.param_grid is not None:
            if not self.param_grid:
                raise ConfigurationError("param_grid, when given, "
                                         "needs at least one entry")
            labels = [label for label, _ in self.param_grid]
            if len(set(labels)) != len(labels):
                raise ConfigurationError(
                    "duplicate labels in param_grid"
                )

    @property
    def total_shards(self) -> int:
        grid = self.param_grid or ((None, _NO_PARAMS),)
        return len(self.services) * len(grid) * len(self.seeds)

    def spec_hash(self) -> str:
        """Stable digest of the whole spec (binds artifact stores)."""
        return spec_digest(self)

    def jobs(self) -> list[ShardJob]:
        """Expand the matrix into shard jobs, in merge order."""
        grid = self.param_grid or ((None, _NO_PARAMS),)
        scenario_map = {spec.name: spec for spec in self.scenarios}
        jobs: list[ShardJob] = []
        for service in self.services:
            base = self.base_config
            already_lowered = (
                base.scenario is not None
                and getattr(base.scenario, "name", None) == service
            )
            if service in scenario_map and not already_lowered:
                # Skip re-lowering a config the caller already lowered
                # (calibrate does, after overriding rung budgets the
                # scenario's workload section must not stomp).
                from repro.scenario.registry import scenario_config

                base = scenario_config(scenario_map[service],
                                       self.base_config)
            for label, params in grid:
                for seed in self.seeds:
                    if params is _NO_PARAMS:
                        config = replace(base, seed=seed)
                    else:
                        config = replace(base, seed=seed,
                                         service_params=params)
                    index = len(jobs)
                    parts = [f"{index:04d}", _slug(service)]
                    if label is not None:
                        parts.append(_slug(label))
                    parts.append(f"s{seed}")
                    jobs.append(ShardJob(
                        index=index,
                        shard_id="_".join(parts),
                        service=service,
                        seed=seed,
                        config=config,
                        label=label,
                    ))
        return jobs
