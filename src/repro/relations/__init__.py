"""Generic visibility/arbitration relation layer over campaign traces.

The paper's methodology ships six anomaly predicates as code
(:mod:`repro.core.anomalies`).  This package generalizes them
(ROADMAP item 4): it derives canonical **visibility** and
**arbitration** relations from any test trace and evaluates
declarative :class:`~repro.relations.spec.MetricSpec` objects over
them, so a new consistency metric is data — a predicate over
relations — not a new subsystem.

* :mod:`repro.relations.spec` — the spec vocabulary, sample/result
  model, and the pure per-read evaluation core.
* :mod:`repro.relations.registry` — the built-in specs
  (``relaxed_consistency``, ``stale_read_inversions``,
  ``session_monotonicity_depth``, plus verdict-equal re-expressions
  of the paper's read-your-writes and monotonic-reads predicates)
  and name resolution for configs / scenario files / ``--metrics``.
* :mod:`repro.relations.streaming` — the one evaluator: bounded-memory,
  incremental, hosted by the
  :class:`~repro.stream.engine.StreamEngine`.
* :mod:`repro.relations.batch` — ``evaluate_metrics``: that evaluator
  run to completion over a finished
  :class:`~repro.core.trace.TestTrace`.
* :mod:`repro.relations.parity` — differential harness proving
  spec == hand-written checker, per element.

Metrics ride end-to-end: ``CampaignConfig(metrics=...)``,
``--metrics`` on ``run``/``fleet``/``stream``, a ``metrics`` key in
scenario files, per-record results in campaign JSON and fleet shards
(byte-identical across worker counts), and report tables via
:func:`repro.analysis.metrics.metric_table`.
"""

from repro.core.anomalies.base import (
    ALL_ANOMALIES,
    SESSION_ANOMALIES,
)
from repro.relations.batch import evaluate_metrics
from repro.relations.parity import legacy_verdict_mismatches
from repro.relations.registry import (
    BUILTIN_SPECS,
    LEGACY_EQUIVALENTS,
    MONOTONIC_READS_SPEC,
    READ_YOUR_WRITES_SPEC,
    RELAXED_CONSISTENCY,
    SESSION_MONOTONICITY_DEPTH,
    STALE_READ_INVERSIONS,
    metric_names,
    resolve_metrics,
)
from repro.relations.spec import (
    Arbitration,
    MetricResult,
    MetricSample,
    MetricSpec,
    ReadContext,
    aggregate,
    evaluate_read,
)
from repro.relations.streaming import StreamingMetricEvaluator

__all__ = [
    "MetricSpec",
    "MetricSample",
    "MetricResult",
    "Arbitration",
    "ReadContext",
    "evaluate_read",
    "aggregate",
    "BUILTIN_SPECS",
    "LEGACY_EQUIVALENTS",
    "RELAXED_CONSISTENCY",
    "STALE_READ_INVERSIONS",
    "SESSION_MONOTONICITY_DEPTH",
    "READ_YOUR_WRITES_SPEC",
    "MONOTONIC_READS_SPEC",
    "metric_names",
    "resolve_metrics",
    "evaluate_metrics",
    "StreamingMetricEvaluator",
    "legacy_verdict_mismatches",
    "anomaly_kinds",
    "session_anomaly_kinds",
]


def anomaly_kinds() -> tuple[str, ...]:
    """The paper's six anomaly kinds, in registry (paper) order.

    The metric-spec replacement for importing ``ALL_ANOMALIES`` from
    the checker registry directly.
    """
    return tuple(ALL_ANOMALIES)


def session_anomaly_kinds() -> tuple[str, ...]:
    """The four session-guarantee anomaly kinds, in paper order."""
    return tuple(SESSION_ANOMALIES)
