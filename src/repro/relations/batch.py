"""Metric evaluation over a finished trace.

There is one evaluator —
:class:`~repro.relations.streaming.StreamingMetricEvaluator` — and a
finished trace is a stream that has ended: :func:`evaluate_metrics`
runs the evaluator to completion over the trace in canonical stream
order (:func:`repro.core.stream.run_to_completion`), exactly as
``checker.check(trace)`` does for the anomaly checkers.
"""

from __future__ import annotations

from repro.core.stream import run_to_completion
from repro.core.trace import TestTrace
from repro.relations.spec import MetricResult, MetricSpec
from repro.relations.streaming import StreamingMetricEvaluator

__all__ = ["evaluate_metrics"]


def evaluate_metrics(
    trace: TestTrace, specs: tuple[MetricSpec, ...],
) -> tuple[MetricResult, ...]:
    """Evaluate every spec over one finished trace.

    Results come back in spec order; each result's samples are the
    nonzero reads in canonical read order.
    """
    if not specs:
        return ()
    (results,) = run_to_completion(
        [StreamingMetricEvaluator(specs)], trace
    )
    return results
