"""Differential batch-vs-streaming parity harness.

The streaming engine's correctness claim is not "approximately the
same anomalies" — it is *element-for-element equality* with the batch
pipeline, per checker, including observation order, example selection,
window intervals, and every scalar in the distilled record.  This
module states that claim as executable checks:

* :func:`checker_mismatches` — each of the six batch checkers against
  its streaming counterpart over one trace.
* :func:`record_mismatches` — the full batch ``analyze_trace`` record
  against the engine's replay record (report, windows, counters,
  duration).
* :func:`verify_trace` — both of the above for one trace; an empty
  list means exact parity.

The parity tests (:mod:`tests.test_stream_parity`) and the CI gate
(``tools/gates.py stream``) are thin wrappers over these.
"""

from __future__ import annotations

from repro.core.anomalies.base import AnomalyChecker
from repro.core.anomalies.registry import default_checkers
from repro.core.trace import TestTrace
from repro.methodology.runner import TestRecord, analyze_trace
from repro.stream.base import StreamingChecker, TestMeta
from repro.stream.engine import (
    StreamEngine,
    default_streaming_checkers,
)
from repro.stream.ingest import replay_trace, stream_order

__all__ = [
    "checker_pairs",
    "checker_mismatches",
    "record_mismatches",
    "verify_trace",
]


def checker_pairs() -> list[tuple[AnomalyChecker, StreamingChecker]]:
    """(batch, streaming) checker instances paired by anomaly kind."""
    streaming = {c.anomaly: c for c in default_streaming_checkers()}
    return [(batch, streaming[batch.anomaly])
            for batch in default_checkers()]


def checker_mismatches(trace: TestTrace) -> list[str]:
    """Per-checker diffs between batch and streaming output."""
    mismatches: list[str] = []
    meta = TestMeta.from_trace(trace)
    stream = stream_order(trace, meta)
    for batch, online in checker_pairs():
        expected = batch.check(trace)
        online.open_test(meta)
        for sop in stream:
            online.observe(meta, sop)
        actual = online.close_test(meta)
        if online.state_size() != 0:
            mismatches.append(
                f"{batch.anomaly}: streaming checker retained "
                f"{online.state_size()} state atoms after close"
            )
        if expected == actual:
            continue
        mismatches.append(
            f"{batch.anomaly}: batch found {len(expected)} "
            f"observation(s), streaming found {len(actual)}"
            if len(expected) != len(actual) else
            f"{batch.anomaly}: observation lists differ in content "
            f"or order (first diff at index "
            f"{_first_diff(expected, actual)})"
        )
    return mismatches


def _first_diff(expected: list, actual: list) -> int:
    for index, (left, right) in enumerate(zip(expected, actual)):
        if left != right:
            return index
    return min(len(expected), len(actual))


def record_mismatches(expected: TestRecord,
                      actual: TestRecord) -> list[str]:
    """Field-level diffs between two distilled test records."""
    mismatches: list[str] = []
    for name in ("test_id", "test_type", "reads_per_agent",
                 "writes_per_agent", "duration", "metrics"):
        left, right = getattr(expected, name), getattr(actual, name)
        if left != right:
            mismatches.append(f"{name}: {left!r} != {right!r}")
    if expected.report != actual.report:
        for kind in expected.report.observations:
            left_obs = expected.report.observations.get(kind, [])
            right_obs = actual.report.observations.get(kind, [])
            if left_obs != right_obs:
                mismatches.append(
                    f"report[{kind}]: {len(left_obs)} batch vs "
                    f"{len(right_obs)} streaming observation(s)"
                )
    for name in ("content_windows", "order_windows"):
        left_map, right_map = getattr(expected, name), getattr(
            actual, name
        )
        if left_map == right_map and (
            list(left_map) == list(right_map)
        ):
            continue
        for pair in left_map:
            if left_map[pair] != right_map.get(pair):
                mismatches.append(
                    f"{name}[{pair}]: {left_map[pair]} != "
                    f"{right_map.get(pair)}"
                )
        if list(left_map) != list(right_map):
            mismatches.append(
                f"{name}: key insertion order differs "
                f"({list(left_map)} vs {list(right_map)})"
            )
    return mismatches


def verify_trace(trace: TestTrace, metrics: tuple = ()) -> list[str]:
    """All parity violations for one trace; empty list = parity.

    ``metrics`` (resolved :class:`repro.relations.spec.MetricSpec`
    objects) extends the proof to the relation layer: the engine's
    streaming metric results must equal the batch evaluator's, field
    for field, via the record comparison.
    """
    mismatches = checker_mismatches(trace)
    engine = StreamEngine(horizon=1, metrics=metrics)
    actual = replay_trace(trace, engine)
    expected = analyze_trace(trace, metrics=metrics)
    mismatches.extend(record_mismatches(expected, actual))
    if metrics:
        from repro.relations.parity import metric_mismatches

        mismatches.extend(metric_mismatches(trace, metrics))
    return mismatches
