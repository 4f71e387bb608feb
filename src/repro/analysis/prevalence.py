"""Anomaly prevalence (the paper's Figure 3).

Figure 3 reports, per service and per anomaly, the percentage of tests
in which the anomaly was observed at all.  Session-guarantee anomalies
are assessed on Test 1 records (Test 2's single write per agent cannot
violate monotonic writes, and its design has no writes-follow-reads
triggers), divergence anomalies on Test 2 records (the test designed
"to uncover divergence among the view that different agents have").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.anomalies import ALL_ANOMALIES, DIVERGENCE_ANOMALIES
from repro.methodology.records import CampaignResult

__all__ = ["PrevalenceRow", "prevalence_rows", "prevalence_table",
           "assessing_test_type"]


def assessing_test_type(anomaly: str) -> str:
    """Which test template assesses a given anomaly."""
    return "test2" if anomaly in DIVERGENCE_ANOMALIES else "test1"


@dataclass(frozen=True)
class PrevalenceRow:
    """One service's prevalence of one anomaly."""

    service: str
    anomaly: str
    test_type: str
    tests_with_anomaly: int
    total_tests: int

    @property
    def fraction(self) -> float:
        if self.total_tests == 0:
            return 0.0
        return self.tests_with_anomaly / self.total_tests

    @property
    def percent(self) -> float:
        return 100.0 * self.fraction


def prevalence_rows(result: CampaignResult) -> list[PrevalenceRow]:
    """Figure 3 rows for one service campaign."""
    rows = []
    for anomaly in ALL_ANOMALIES:
        test_type = assessing_test_type(anomaly)
        records = result.of_type(test_type)
        hits = sum(1 for record in records if record.report.has(anomaly))
        rows.append(PrevalenceRow(
            service=result.service,
            anomaly=anomaly,
            test_type=test_type,
            tests_with_anomaly=hits,
            total_tests=len(records),
        ))
    return rows


def prevalence_table(results: dict[str, CampaignResult]) -> str:
    """Render Figure 3 as an aligned text table (services as columns)."""
    services = list(results)
    header = f"{'anomaly':24s}" + "".join(
        f"{service:>16s}" for service in services
    )
    lines = [header, "-" * len(header)]
    rows_by_service = {
        service: {row.anomaly: row for row in prevalence_rows(result)}
        for service, result in results.items()
    }
    for anomaly in ALL_ANOMALIES:
        cells = "".join(
            f"{rows_by_service[service][anomaly].percent:15.1f}%"
            for service in services
        )
        lines.append(f"{anomaly:24s}{cells}")
    return "\n".join(lines)
