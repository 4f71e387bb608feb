"""Differential parity for the metric layer.

Two equalities anchor the relation subsystem, both stated here as
mismatch-listing helpers (empty list == proved for that trace), both
enforced per-commit by ``tests/test_relations_parity.py`` and per-push
by the ``tools/gates.py relations`` CI gate:

* **streaming == batch** — replaying a finished trace through
  :class:`~repro.relations.streaming.StreamingMetricEvaluator` in
  canonical stream order yields, element for element, the tuple
  :func:`~repro.relations.batch.evaluate_metrics` computes, and the
  evaluator retains zero state afterwards.
* **spec == legacy** — the re-expressed paper predicates
  (read-your-writes, monotonic reads) flag exactly the reads the
  legacy checkers flag, with identical evidence.
"""

from __future__ import annotations

from repro.core.trace import TestTrace
from repro.relations.batch import evaluate_metrics
from repro.relations.registry import (
    BUILTIN_SPECS,
    LEGACY_EQUIVALENTS,
)
from repro.relations.spec import MetricResult, MetricSpec

__all__ = [
    "streaming_metrics",
    "metric_mismatches",
    "legacy_verdict_mismatches",
]


def streaming_metrics(
    trace: TestTrace, specs: tuple[MetricSpec, ...],
) -> tuple[tuple[MetricResult, ...], int]:
    """Replay one trace through the streaming evaluator.

    Returns the metric results and the evaluator's retained state
    *after* close — the latter must be zero (bounded-memory contract).
    """
    from repro.relations.streaming import StreamingMetricEvaluator
    from repro.stream.base import TestMeta
    from repro.stream.ingest import stream_order

    meta = TestMeta.from_trace(trace)
    evaluator = StreamingMetricEvaluator(specs)
    evaluator.open_test(meta)
    for sop in stream_order(trace):
        evaluator.observe(meta, sop)
    results = evaluator.close_test(meta)
    return results, evaluator.state_size()


def metric_mismatches(
    trace: TestTrace, specs: tuple[MetricSpec, ...],
) -> list[str]:
    """Streaming-vs-batch differences for one trace (empty == parity)."""
    batch = evaluate_metrics(trace, specs)
    streamed, retained = streaming_metrics(trace, specs)
    problems: list[str] = []
    if retained:
        problems.append(
            f"{trace.test_id}: evaluator retained {retained} state "
            "atoms after close"
        )
    if len(batch) != len(streamed):
        problems.append(
            f"{trace.test_id}: result count {len(streamed)} != batch "
            f"{len(batch)}"
        )
        return problems
    for expected, actual in zip(batch, streamed):
        prefix = f"{trace.test_id}/{expected.metric}"
        if actual.metric != expected.metric:
            problems.append(
                f"{prefix}: metric order {actual.metric!r}"
            )
            continue
        if actual.value != expected.value:
            problems.append(
                f"{prefix}: value {actual.value} != {expected.value}"
            )
        if len(actual.samples) != len(expected.samples):
            problems.append(
                f"{prefix}: {len(actual.samples)} samples != "
                f"{len(expected.samples)}"
            )
            continue
        for index, (want, got) in enumerate(
                zip(expected.samples, actual.samples)):
            if want != got:
                problems.append(
                    f"{prefix}[{index}]: {got} != {want}"
                )
    return problems


def legacy_verdict_mismatches(trace: TestTrace) -> list[str]:
    """Spec-vs-legacy verdict differences for one trace.

    For each re-expressed predicate, the spec's nonzero samples and
    the legacy checker's observations must name the same violating
    reads with the same evidence; element order differs by
    construction (legacy groups by agent, specs follow canonical read
    order), so both sides are compared as sorted evidence keys.
    """
    from repro.core.anomalies.registry import check_all

    report = check_all(trace)
    problems: list[str] = []
    for spec_name, kind in LEGACY_EQUIVALENTS.items():
        spec = BUILTIN_SPECS[spec_name]
        (result,) = evaluate_metrics(trace, (spec,))
        spec_keys = sorted(
            (sample.agent, sample.time,
             tuple(sample.details["missing"]),
             tuple(sample.details["observed"]))
            for sample in result.samples
        )
        legacy_keys = sorted(
            (obs.agent, obs.time,
             tuple(obs.details["missing"]),
             tuple(obs.details["observed"]))
            for obs in report.observations.get(kind, [])
        )
        if spec_keys != legacy_keys:
            problems.append(
                f"{trace.test_id}/{spec_name}: spec verdicts "
                f"{spec_keys} != legacy {legacy_keys}"
            )
        if result.value != len(legacy_keys):
            problems.append(
                f"{trace.test_id}/{spec_name}: value {result.value} "
                f"!= legacy observation count {len(legacy_keys)}"
            )
    return problems
