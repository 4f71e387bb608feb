"""The paper's core contribution, made executable.

* :mod:`repro.core.trace` — the write/read operation-trace model.
* :mod:`repro.core.stream` — canonical stream order and the one
  open → observe → close driver every evaluation goes through.
* :mod:`repro.core.anomalies` — the six anomaly predicates of §III as
  incremental checkers (``check(trace)`` runs one to completion).
* :mod:`repro.core.windows` — content/order divergence-window
  computation with clock-delta correction (§III.3, §IV).
* :mod:`repro.core.metrics` — CDFs and the occurrence buckets used by
  the paper's figures.
"""

from repro.core.anomalies import (
    ALL_ANOMALIES,
    CONTENT_DIVERGENCE,
    DIVERGENCE_ANOMALIES,
    MONOTONIC_READS,
    MONOTONIC_WRITES,
    ORDER_DIVERGENCE,
    READ_YOUR_WRITES,
    SESSION_ANOMALIES,
    WRITES_FOLLOW_READS,
    AnomalyObservation,
    TraceReport,
    check_all,
    default_checkers,
)
from repro.core.metrics import DEFAULT_BUCKETS, EmpiricalCDF, OccurrenceBuckets
from repro.core.trace import Operation, ReadOp, TestTrace, WriteOp
from repro.core.windows import (
    WindowResult,
    content_divergence_windows,
    divergence_windows,
    order_divergence_windows,
)

__all__ = [
    "TestTrace",
    "WriteOp",
    "ReadOp",
    "Operation",
    "AnomalyObservation",
    "TraceReport",
    "check_all",
    "default_checkers",
    "ALL_ANOMALIES",
    "SESSION_ANOMALIES",
    "DIVERGENCE_ANOMALIES",
    "READ_YOUR_WRITES",
    "MONOTONIC_WRITES",
    "MONOTONIC_READS",
    "WRITES_FOLLOW_READS",
    "CONTENT_DIVERGENCE",
    "ORDER_DIVERGENCE",
    "WindowResult",
    "divergence_windows",
    "content_divergence_windows",
    "order_divergence_windows",
    "EmpiricalCDF",
    "OccurrenceBuckets",
    "DEFAULT_BUCKETS",
]
