"""Per-test anomaly-count distributions (Figures 4–7, panels (a)/(b)).

Figures 4(a,b), 5(a,b,c), 6(a,b) and 7(a,b) show, for one service and
one session anomaly, how many times the anomaly was observed per test,
per agent, bucketed as 1 / 2 / 3-10 / >10 occurrences.  One
"observation" is one read exhibiting the anomaly, matching the
checkers' granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics import DEFAULT_BUCKETS, OccurrenceBuckets
from repro.methodology.records import CampaignResult

__all__ = ["DistributionPanel", "occurrence_distribution",
           "distribution_table"]


@dataclass(frozen=True)
class DistributionPanel:
    """One (service, anomaly) panel: per-agent bucketed counts.

    ``histograms[agent][bucket_label]`` = number of tests in which the
    agent observed the anomaly that many times.  Tests with zero
    observations for an agent are not counted in any bucket (the
    figures only show tests where the anomaly occurred).
    """

    service: str
    anomaly: str
    test_type: str
    buckets: OccurrenceBuckets
    histograms: dict[str, dict[str, int]] = field(default_factory=dict)
    total_tests: int = 0

    def tests_with_anomaly(self, agent: str) -> int:
        return sum(self.histograms.get(agent, {}).values())


def occurrence_distribution(
    result: CampaignResult, anomaly: str, test_type: str = "test1",
    buckets: OccurrenceBuckets = DEFAULT_BUCKETS,
) -> DistributionPanel:
    """Build one distribution panel from campaign records."""
    records = result.of_type(test_type)
    agents: list[str] = []
    per_agent_counts: dict[str, list[int]] = {}
    for record in records:
        for agent, count in record.report.count_by_agent(anomaly).items():
            if agent not in per_agent_counts:
                agents.append(agent)
                per_agent_counts[agent] = []
            if count > 0:
                per_agent_counts[agent].append(count)
    histograms = {
        agent: buckets.histogram(counts)
        for agent, counts in per_agent_counts.items()
    }
    return DistributionPanel(
        service=result.service,
        anomaly=anomaly,
        test_type=test_type,
        buckets=buckets,
        histograms=histograms,
        total_tests=len(records),
    )


def distribution_table(panel: DistributionPanel) -> str:
    """Render a panel as an aligned text table (agents as rows)."""
    labels = panel.buckets.labels
    header = (f"{'agent':12s}"
              + "".join(f"{label:>8s}" for label in labels)
              + f"{'tests':>8s}")
    lines = [
        f"{panel.service} / {panel.anomaly} "
        f"(observations per test, {panel.test_type})",
        header,
        "-" * len(header),
    ]
    for agent, histogram in panel.histograms.items():
        cells = "".join(f"{histogram[label]:8d}" for label in labels)
        lines.append(
            f"{agent:12s}{cells}{panel.tests_with_anomaly(agent):8d}"
        )
    return "\n".join(lines)
