"""Relation-layer metric summaries (spec-defined consistency metrics).

Campaigns run with :attr:`CampaignConfig.metrics` carry one
:class:`~repro.relations.spec.MetricResult` per spec on every test
record.  This module reduces those per-test values into campaign-level
rows and renders them as an aligned text table, the same presentation
surface the anomaly prevalence table gives the six built-in checkers.

The reduction respects each spec's ``measure``: ``count``/``sum``
metrics total across tests (the campaign-wide event count), ``max``
metrics take the campaign-wide maximum (a depth/score is not additive).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.methodology.records import CampaignResult
from repro.relations.registry import resolve_metrics

__all__ = ["MetricSummary", "metric_summaries", "metric_table"]


@dataclass(frozen=True)
class MetricSummary:
    """One service campaign's reduction of one spec-defined metric."""

    service: str
    metric: str
    measure: str
    #: Campaign-level value: total for count/sum, maximum for max.
    value: float
    #: Tests whose per-test value was non-zero.
    tests_affected: int
    total_tests: int


def metric_summaries(result: CampaignResult) -> list[MetricSummary]:
    """Campaign-level rows, in the order the config names metrics."""
    names = result.config.metrics
    if not names:
        return []
    specs = resolve_metrics(names)
    totals = {spec.name: 0.0 for spec in specs}
    affected = {spec.name: 0 for spec in specs}
    for record in result.records:
        for metric_result in record.metrics:
            name = metric_result.metric
            if name not in totals:
                continue
            if metric_result.value:
                affected[name] += 1
            totals[name] = max(totals[name], metric_result.value) \
                if _is_max(specs, name) else \
                totals[name] + metric_result.value
    return [
        MetricSummary(
            service=result.service,
            metric=spec.name,
            measure=spec.measure,
            value=totals[spec.name],
            tests_affected=affected[spec.name],
            total_tests=len(result.records),
        )
        for spec in specs
    ]


def _is_max(specs, name: str) -> bool:
    return any(spec.name == name and spec.measure == "max"
               for spec in specs)


def metric_table(results: dict[str, CampaignResult]) -> str:
    """Aligned text table of metric summaries (services as columns).

    Only campaigns that actually computed metrics contribute columns;
    rows are the union of their metric names in first-seen order.
    """
    summaries = {
        service: {row.metric: row for row in metric_summaries(result)}
        for service, result in results.items()
        if result.config.metrics
    }
    if not summaries:
        return "(no campaigns ran with --metrics)"
    metric_order: list[str] = []
    for rows in summaries.values():
        for name in rows:
            if name not in metric_order:
                metric_order.append(name)
    services = list(summaries)
    header = f"{'metric':28s}" + "".join(
        f"{service:>16s}" for service in services
    )
    lines = [header, "-" * len(header)]
    for name in metric_order:
        cells = ""
        for service in services:
            row = summaries[service].get(name)
            cells += f"{'-':>16s}" if row is None else \
                f"{row.value:16g}"
        lines.append(f"{name:28s}{cells}")
    return "\n".join(lines)
