"""Full textual report: every table and figure for a set of campaigns.

:func:`full_report` stitches together the Figure 3 prevalence table,
the per-anomaly distribution and correlation panels (Figures 4–7), the
per-pair divergence table (Figure 8), the window CDFs (Figures 9–10),
and the campaign totals the paper quotes in §V.  The CLI's ``figures``
command and the examples print this.
"""

from __future__ import annotations

from repro.analysis.cdf import window_cdf_table, window_cdfs
from repro.analysis.correlation import (
    correlation_table,
    location_correlation,
)
from repro.analysis.distributions import (
    distribution_table,
    occurrence_distribution,
)
from repro.analysis.divergence import (
    pair_divergence,
    pair_divergence_table,
)
from repro.analysis.prevalence import prevalence_table
from repro.core.anomalies import (
    CONTENT_DIVERGENCE,
    ORDER_DIVERGENCE,
    SESSION_ANOMALIES,
)
from repro.methodology.records import CampaignResult

__all__ = ["campaign_totals", "full_report"]

#: Figure number of each session anomaly's distribution panel.
_FIGURE_OF = {
    "read_your_writes": 4,
    "monotonic_writes": 5,
    "monotonic_reads": 6,
    "writes_follow_reads": 7,
}


def campaign_totals(result: CampaignResult) -> str:
    """The §V-style totals line for one campaign."""
    return (f"{result.service}: {result.total_tests} tests comprising "
            f"{result.total_reads} reads and {result.total_writes} "
            f"writes")


def full_report(results: dict[str, CampaignResult],
                agents: tuple[str, ...] = ("ireland", "oregon",
                                           "tokyo")) -> str:
    """Render every figure for the given campaigns as one text report."""
    sections: list[str] = []

    sections.append("== Campaign totals (cf. §V) ==")
    for result in results.values():
        sections.append(campaign_totals(result))

    sections.append("\n== Figure 3: % of tests with each anomaly ==")
    sections.append(prevalence_table(results))

    for anomaly in SESSION_ANOMALIES:
        figure = _FIGURE_OF[anomaly]
        sections.append(
            f"\n== Figure {figure}: {anomaly} per-test distribution "
            f"and location correlation =="
        )
        for result in results.values():
            panel = occurrence_distribution(result, anomaly)
            if any(panel.tests_with_anomaly(agent)
                   for agent in panel.histograms):
                sections.append(distribution_table(panel))
                sections.append(correlation_table(
                    location_correlation(result, anomaly)
                ))

    sections.append("\n== Figure 8: content divergence per agent pair ==")
    for result in results.values():
        prevalence = pair_divergence(result, CONTENT_DIVERGENCE)
        sections.append(pair_divergence_table(prevalence, agents))

    sections.append("\n== Figure 9: content divergence window CDFs ==")
    for result in results.values():
        cdf_set = window_cdfs(result, kind="content")
        if cdf_set.samples or cdf_set.unconverged:
            sections.append(window_cdf_table(cdf_set))
            chart = _cdf_chart(cdf_set)
            if chart:
                sections.append(chart)

    sections.append("\n== Figure 10: order divergence window CDFs ==")
    for result in results.values():
        cdf_set = window_cdfs(result, kind="order")
        if cdf_set.samples or cdf_set.unconverged:
            sections.append(window_cdf_table(cdf_set))
            chart = _cdf_chart(cdf_set)
            if chart:
                sections.append(chart)
        prevalence = pair_divergence(result, ORDER_DIVERGENCE)
        if prevalence.counts:
            sections.append(pair_divergence_table(prevalence, agents))

    if any(result.config.metrics for result in results.values()):
        from repro.analysis.metrics import metric_table

        sections.append("\n== Consistency metrics "
                        "(spec-defined, repro.relations) ==")
        sections.append(metric_table(results))

    return "\n".join(sections)


def _cdf_chart(cdf_set) -> str | None:
    """An ASCII chart of the per-pair window CDFs, when data allows."""
    from repro.analysis.plots import CdfSeries, render_cdf

    series = []
    for pair in sorted(cdf_set.samples):
        cdf = cdf_set.cdf(pair)
        if cdf is not None and len(cdf.samples) >= 3:
            series.append(CdfSeries(label=f"{pair[0]}-{pair[1]}",
                                    cdf=cdf))
    if not series:
        return None
    return render_cdf(series, width=60, height=12)
