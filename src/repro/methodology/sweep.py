"""Prevalence statistics across replicated campaigns.

A single campaign is one sample of a stochastic system; the paper's
credibility rests on ~1,000 tests per configuration.  Replicates run
through the :mod:`repro.fleet` engine (``run_fleet(FleetSpec(...,
seeds=...))``, or ``fleet --seeds`` on the command line), and
:func:`prevalence_statistics` reduces their results to the mean /
min / max prevalence per anomaly that ``fleet --seeds`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.prevalence import assessing_test_type
from repro.core.anomalies import ALL_ANOMALIES
from repro.errors import ConfigurationError
from repro.methodology.records import CampaignResult

__all__ = ["PrevalenceStats", "prevalence_statistics"]


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
) -> dict[str, PrevalenceStats]:
    """Aggregate anomaly prevalence across replicated campaigns.

    Each anomaly is assessed on its own template, as Figure 3 does
    (:func:`~repro.analysis.prevalence.assessing_test_type`).
    """
    if not results:
        raise ConfigurationError("need at least one campaign result")
    stats: dict[str, PrevalenceStats] = {}
    for anomaly in ALL_ANOMALIES:
        test_type = assessing_test_type(anomaly)
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
