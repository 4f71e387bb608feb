"""Analysis pipeline: regenerate every table and figure of the paper.

* :mod:`repro.analysis.prevalence` — Figure 3.
* :mod:`repro.analysis.distributions` — Figures 4–7 panels (a)/(b).
* :mod:`repro.analysis.correlation` — Figures 4c/5d/6c/7c.
* :mod:`repro.analysis.divergence` — Figure 8.
* :mod:`repro.analysis.cdf` — Figures 9 and 10.
* :mod:`repro.analysis.report` — one-call textual report of everything.
"""

from repro._facade import facade

__all__, __getattr__, __dir__ = facade(__name__, {
    ".prevalence": (
        "PrevalenceRow", "prevalence_rows", "prevalence_table",
        "assessing_test_type",
    ),
    ".distributions": (
        "DistributionPanel", "occurrence_distribution", "distribution_table",
    ),
    ".correlation": (
        "CorrelationBreakdown", "location_correlation", "correlation_table",
    ),
    ".divergence": (
        "PairPrevalence", "pair_divergence", "pair_divergence_table",
    ),
    ".cdf": ("WindowCdf", "window_cdfs", "window_cdf_table"),
    ".report": ("campaign_totals", "full_report"),
    ".metrics": ("MetricSummary", "metric_summaries", "metric_table"),
    ".plots": ("CdfSeries", "render_cdf"),
    ".timeline": ("render_timeline",),
    ".validation": (
        "ground_truth_trace", "WindowErrorSample", "WindowErrorReport",
        "window_measurement_errors", "summarize_window_errors",
    ),
})
