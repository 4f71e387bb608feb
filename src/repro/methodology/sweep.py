"""Replication and parameter sweeps over campaigns.

A single campaign is one sample of a stochastic system; the paper's
credibility rests on ~1,000 tests per configuration.  This module
provides the two aggregation patterns the benchmarks and examples use:

* :func:`replicate` — run the same campaign at several seeds, for
  confidence intervals on any reported fraction.
* :func:`sweep` — run one campaign per parameter configuration (e.g.
  the quorum R/W grid) and collect results keyed by label.
* :func:`prevalence_statistics` — mean/min/max prevalence per anomaly
  across replicated campaigns.

Both aggregators route through the :mod:`repro.fleet` engine.  The
default ``jobs=1`` executes in-process, exactly as the historical
serial implementation did; ``jobs>=2`` fans campaigns out over a
worker-process pool with bit-identical merged output (the fleet's
golden-signature contract).  Pass ``out_dir`` to persist shards and
make the run resumable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.core.anomalies import ALL_ANOMALIES
from repro.errors import ConfigurationError
from repro.methodology.config import CampaignConfig
from repro.methodology.records import CampaignResult

__all__ = ["replicate", "sweep", "PrevalenceStats",
           "prevalence_statistics"]


def replicate(service: str, config: CampaignConfig,
              seeds: Iterable[int], *,
              jobs: int = 1,
              out_dir: str | Path | None = None,
              on_event: Any = None) -> list[CampaignResult]:
    """Run the same campaign once per seed (in seed order).

    Seeds must be distinct: a duplicated seed re-runs the *identical*
    campaign and silently skews :func:`prevalence_statistics` sample
    counts, so it is rejected as a configuration error.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigurationError("replicate needs at least one seed")
    duplicates = sorted({seed for seed in seeds
                         if seeds.count(seed) > 1})
    if duplicates:
        raise ConfigurationError(
            f"replicate got duplicate seeds {duplicates}: replicates "
            "must be independent samples, or prevalence_statistics "
            "double-counts the same campaign"
        )
    from repro.fleet.executor import run_fleet
    from repro.fleet.spec import FleetSpec

    spec = FleetSpec(services=(service,), base_config=config,
                     seeds=tuple(seeds))
    outcome = run_fleet(spec, jobs=jobs, out_dir=out_dir,
                        on_event=on_event)
    return outcome.results


def sweep(service: str, base_config: CampaignConfig,
          param_grid: dict[str, Any], *,
          jobs: int = 1,
          out_dir: str | Path | None = None,
          on_event: Any = None) -> dict[str, CampaignResult]:
    """Run one campaign per labelled service-parameter object.

    ``param_grid`` maps a display label to the ``service_params``
    object for that configuration (e.g. ``{"R=1,W=1": QuorumKvParams(
    quorum=QuorumParams(1, 1))}`` — values are passed through to the
    service constructor).  Results preserve the grid's insertion
    order regardless of ``jobs``.
    """
    if not param_grid:
        raise ConfigurationError("sweep needs at least one configuration")
    from repro.fleet.executor import run_fleet
    from repro.fleet.spec import FleetSpec

    spec = FleetSpec(
        services=(service,), base_config=base_config,
        seeds=(base_config.seed,),
        param_grid=tuple(param_grid.items()),
    )
    outcome = run_fleet(spec, jobs=jobs, out_dir=out_dir,
                        on_event=on_event)
    return {job.label: result
            for job, result in zip(outcome.jobs, outcome.results)}


@dataclass(frozen=True)
class PrevalenceStats:
    """Across-seed statistics for one anomaly's prevalence."""

    anomaly: str
    mean: float
    minimum: float
    maximum: float
    samples: int

    @property
    def spread(self) -> float:
        return self.maximum - self.minimum


def prevalence_statistics(
    results: list[CampaignResult],
    test_type: str | None = None,
) -> dict[str, PrevalenceStats]:
    """Aggregate anomaly prevalence across replicated campaigns."""
    if not results:
        raise ConfigurationError("need at least one campaign result")
    stats: dict[str, PrevalenceStats] = {}
    for anomaly in ALL_ANOMALIES:
        values = [result.prevalence(anomaly, test_type)
                  for result in results]
        stats[anomaly] = PrevalenceStats(
            anomaly=anomaly,
            mean=sum(values) / len(values),
            minimum=min(values),
            maximum=max(values),
            samples=len(values),
        )
    return stats
