"""Per-pair divergence prevalence (the paper's Figure 8).

Figure 8 reports, per service and per *agent pair*, the percentage of
tests exhibiting content divergence between that pair — the figure that
led the paper to infer Oregon and Tokyo share a Google+ datacenter
(their pair diverges far less often and resolves faster).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.anomalies import CONTENT_DIVERGENCE, ORDER_DIVERGENCE
from repro.methodology.records import CampaignResult, Pair

__all__ = ["PairPrevalence", "pair_divergence", "pair_divergence_table"]


@dataclass(frozen=True)
class PairPrevalence:
    """Per-pair divergence counts for one service and anomaly."""

    service: str
    anomaly: str
    test_type: str
    #: pair -> number of tests in which that pair diverged.
    counts: dict[Pair, int] = field(default_factory=dict)
    total_tests: int = 0

    def fraction(self, pair: Pair) -> float:
        if self.total_tests == 0:
            return 0.0
        return self.counts.get(tuple(sorted(pair)), 0) / self.total_tests


def pair_divergence(result: CampaignResult,
                    anomaly: str = CONTENT_DIVERGENCE,
                    test_type: str = "test2") -> PairPrevalence:
    """Count, per agent pair, the tests where the pair diverged."""
    if anomaly not in (CONTENT_DIVERGENCE, ORDER_DIVERGENCE):
        raise ValueError(f"{anomaly!r} is not a divergence anomaly")
    counts: dict[Pair, int] = {}
    records = result.of_type(test_type)
    for record in records:
        for pair in record.report.diverged_pairs(anomaly):
            counts[pair] = counts.get(pair, 0) + 1
    return PairPrevalence(
        service=result.service,
        anomaly=anomaly,
        test_type=test_type,
        counts=counts,
        total_tests=len(records),
    )


def pair_divergence_table(prevalence: PairPrevalence,
                          agents: tuple[str, ...]) -> str:
    """Render Figure 8 for one service as an aligned text table."""
    lines = [
        f"{prevalence.service}: % of tests with {prevalence.anomaly} "
        f"per agent pair ({prevalence.total_tests} tests)",
    ]
    for i, first in enumerate(agents):
        for second in agents[i + 1:]:
            pair = tuple(sorted((first, second)))
            lines.append(
                f"  {first:>8s} - {second:<8s}"
                f"{100.0 * prevalence.fraction(pair):8.1f}%"
            )
    return "\n".join(lines)
