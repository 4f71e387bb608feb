"""Cross-location correlation of anomalies (Figures 4c, 5d, 6c, 7c).

The paper asks whether an anomaly in a given test is a *local*
phenomenon (perceived by a single agent) or a *global* one (multiple
agents perceive it in the same test), and plots the percentage of
anomalous tests broken down by the exact set of observing agents —
"Oregon only", "Tokyo only", ..., "all three".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.methodology.records import CampaignResult

__all__ = ["CorrelationBreakdown", "location_correlation",
           "correlation_table"]


@dataclass(frozen=True)
class CorrelationBreakdown:
    """Who observed the anomaly, per test, for one (service, anomaly).

    ``combos`` maps a sorted tuple of agent names to the number of
    tests in which exactly that set of agents observed the anomaly.
    """

    service: str
    anomaly: str
    test_type: str
    combos: dict[tuple[str, ...], int] = field(default_factory=dict)
    total_tests: int = 0

    @property
    def tests_with_anomaly(self) -> int:
        return sum(self.combos.values())

    def fraction_exclusive(self) -> float:
        """Share of anomalous tests seen by exactly one agent."""
        if self.tests_with_anomaly == 0:
            return 0.0
        solo = sum(count for combo, count in self.combos.items()
                   if len(combo) == 1)
        return solo / self.tests_with_anomaly

    def fraction_global(self) -> float:
        """Share of anomalous tests seen by every agent."""
        if self.tests_with_anomaly == 0:
            return 0.0
        sizes = [len(combo) for combo in self.combos]
        full = max(sizes)
        everyone = sum(count for combo, count in self.combos.items()
                       if len(combo) == full and full >= 3)
        return everyone / self.tests_with_anomaly


def location_correlation(result: CampaignResult, anomaly: str,
                         test_type: str = "test1") -> CorrelationBreakdown:
    """Compute the observing-agent-set breakdown for one anomaly."""
    combos: dict[tuple[str, ...], int] = {}
    records = result.of_type(test_type)
    for record in records:
        observers = record.report.agents_observing(anomaly)
        if not observers:
            continue
        key = tuple(sorted(observers))
        combos[key] = combos.get(key, 0) + 1
    return CorrelationBreakdown(
        service=result.service,
        anomaly=anomaly,
        test_type=test_type,
        combos=combos,
        total_tests=len(records),
    )


def correlation_table(breakdown: CorrelationBreakdown) -> str:
    """Render the breakdown as an aligned text table."""
    lines = [
        f"{breakdown.service} / {breakdown.anomaly}: observing agents "
        f"per anomalous test ({breakdown.tests_with_anomaly} of "
        f"{breakdown.total_tests} tests)",
    ]
    total = breakdown.tests_with_anomaly or 1
    for combo, count in sorted(breakdown.combos.items(),
                               key=lambda item: (-item[1], item[0])):
        label = "+".join(combo)
        lines.append(f"  {label:32s}{count:6d}  "
                     f"({100.0 * count / total:5.1f}%)")
    lines.append(f"  {'exclusive (single agent)':32s}"
                 f"{100.0 * breakdown.fraction_exclusive():5.1f}% "
                 f"of anomalous tests")
    return "\n".join(lines)
