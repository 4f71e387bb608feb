"""Generic visibility/arbitration relation layer over campaign traces.

The paper's methodology ships six anomaly predicates as code
(:mod:`repro.core.anomalies`) — the checkers are the engine.  This
package grades on top of them: a declarative
:class:`~repro.relations.spec.MetricSpec` either folds a checker's
evidence (``missing`` specs) or is computed over the **visibility**
and **arbitration** relations (ViSearch's relaxation score, the
inversion count), minimised over the admissible arbitrations.  The
vocabulary grows only when a second predicate needs a relation.

* :mod:`repro.relations.spec` — the spec vocabulary, sample/result
  model, the minimal admissible arbitration and the pure per-read
  relaxation/inversion core.
* :mod:`repro.relations.registry` — the built-in specs
  (``relaxed_consistency``, ``stale_read_inversions`` and the checker
  fold ``session_monotonicity_depth``) and name resolution for
  configs / scenario files / ``--metrics``.
* :mod:`repro.relations.streaming` — the one evaluator: bounded-memory,
  incremental, hosted by the
  :class:`~repro.stream.engine.StreamEngine`.
* :mod:`repro.relations.batch` — ``evaluate_metrics``: that evaluator
  run to completion over a finished
  :class:`~repro.core.trace.TestTrace`.

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
from repro.relations.registry import (
    BUILTIN_SPECS,
    RELAXED_CONSISTENCY,
    SESSION_MONOTONICITY_DEPTH,
    STALE_READ_INVERSIONS,
    metric_names,
    resolve_metrics,
)
from repro.relations.spec import (
    Arbitration,
    LoggedWrite,
    MetricResult,
    MetricSample,
    MetricSpec,
    ReadContext,
    aggregate,
    evaluate_read,
    minimal_arbitration,
)
from repro.relations.streaming import StreamingMetricEvaluator

__all__ = [
    "MetricSpec",
    "MetricSample",
    "MetricResult",
    "LoggedWrite",
    "Arbitration",
    "minimal_arbitration",
    "ReadContext",
    "evaluate_read",
    "aggregate",
    "BUILTIN_SPECS",
    "RELAXED_CONSISTENCY",
    "STALE_READ_INVERSIONS",
    "SESSION_MONOTONICITY_DEPTH",
    "metric_names",
    "resolve_metrics",
    "evaluate_metrics",
    "StreamingMetricEvaluator",
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
