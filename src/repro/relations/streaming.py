"""Bounded-memory incremental evaluation of metric specs.

:class:`StreamingMetricEvaluator` is the one metric evaluator.  It has
the :class:`~repro.core.anomalies.base.AnomalyChecker` lifecycle —
``open_test`` / ``observe`` (canonical stream order) / ``close_test``
— and produces, per closed test, one
:class:`~repro.relations.spec.MetricResult` per spec
(:func:`~repro.relations.batch.evaluate_metrics` runs it to completion
over a finished trace):

* ``missing`` specs fold a checker's evidence: every observation the
  ``ReadYourWritesChecker`` (``own_completed``) or the
  ``MonotonicReadsChecker`` (``seen_before``) fires becomes a sample
  valued by the size of its ``missing`` set, in stream order — so each
  §III predicate has exactly one implementation, its checker, and one
  evaluation per operation: on its own the evaluator owns the checkers
  its specs name; inside :class:`~repro.stream.engine.StreamEngine`,
  which runs both anyway, it folds what the engine's checkers fire.
* ``relaxation``/``inversion`` specs rank views against the
  *arbitration* order over all of the test's logged writes — a total
  order no prefix of the stream can pin down (a later-arriving write
  may carry an earlier corrected invocation).  Their reads are parked
  as bare view snapshots and valued at ``close_test``, when the
  arbitration order is complete — once per *distinct* view, of which
  alone the value is a function; the same defer-to-resolution
  discipline the writes-follow-reads checker uses.

All state — the owned checkers' included — is per *open* test and
dropped whole at close; :meth:`state_size` counts every retained atom
so the engine's bounded-memory telemetry covers the metric layer too.
"""

from __future__ import annotations

from repro.core.anomalies.monotonic_reads import MonotonicReadsChecker
from repro.core.anomalies.read_your_writes import ReadYourWritesChecker
from repro.core.stream import StreamOp, TestMeta
from repro.relations.spec import (
    Arbitration,
    MetricResult,
    MetricSample,
    MetricSpec,
    ReadContext,
    aggregate,
    evaluate_read,
)

__all__ = ["StreamingMetricEvaluator"]

#: ``expect`` kind -> the checker whose observations carry, as
#: ``details["missing"]``, the expected ids absent from a read.
_EVIDENCE = {
    "own_completed": ReadYourWritesChecker,
    "seen_before": MonotonicReadsChecker,
}
#: Anomaly kind of an evidence checker -> the ``expect`` kind it serves.
_EXPECT_OF = {checker.anomaly: expect
              for expect, checker in _EVIDENCE.items()}


class _MetricState:
    """Per-open-test relation state."""

    __slots__ = ("writes_keyed", "evidence", "pending")

    def __init__(self, expects) -> None:
        #: (corrected_invoke, seq, message_id) per logged write.
        self.writes_keyed: list[tuple[float, int, str]] = []
        #: expect kind -> samples, in arrival (canonical) order.
        self.evidence: dict[str, list[MetricSample]] = {
            expect: [] for expect in expects
        }
        #: View snapshots awaiting the final arbitration order.
        self.pending: list[ReadContext] = []


class StreamingMetricEvaluator:
    """Evaluate metric specs over an interleaved operation stream.

    ``fed`` is internal wiring for ``StreamEngine``, which runs the
    evidence checkers itself and hands :meth:`observe` what each
    operation fired; a fed evaluator owns no checker.
    """

    def __init__(self, specs: tuple[MetricSpec, ...],
                 fed: bool = False) -> None:
        self.specs = tuple(specs)
        self._deferred = any(
            spec.needs_arbitration for spec in self.specs
        )
        expected = {spec.expect for spec in self.specs}
        self._expects = [expect for expect in _EVIDENCE
                         if expect in expected]
        self._checkers = [] if fed else [
            _EVIDENCE[expect]() for expect in self._expects
        ]
        self._tests: dict[str, _MetricState] = {}

    # -- lifecycle ----------------------------------------------------

    def open_test(self, meta: TestMeta) -> None:
        self._tests[meta.test_id] = _MetricState(self._expects)
        for checker in self._checkers:
            checker.open_test(meta)

    def observe(self, meta: TestMeta, sop: StreamOp,
                fired=()) -> None:
        """Ingest one operation (and, when fed, what it ``fired``)."""
        state = self._tests[meta.test_id]
        if self._checkers:
            fired = [obs for checker in self._checkers
                     for obs in checker.observe(meta, sop)]
        for obs in fired:
            samples = state.evidence.get(_EXPECT_OF.get(obs.anomaly))
            if samples is not None:
                samples.append(MetricSample(
                    obs.agent, obs.time, len(obs.details["missing"]),
                    obs.details))
        op = sop.op
        if not sop.is_read:
            state.writes_keyed.append(
                (sop.invoke, sop.seq, op.message_id)
            )
        elif self._deferred:
            state.pending.append(
                ReadContext(op.agent, sop.time, op.observed))

    def close_test(self, meta: TestMeta) -> tuple[MetricResult, ...]:
        """Finish one test: resolve deferred specs, drop all state."""
        state = self._tests.pop(meta.test_id)
        for checker in self._checkers:
            checker.close_test(meta)
        arbitration = Arbitration.from_keyed(state.writes_keyed)
        results: list[MetricResult] = []
        for spec in self.specs:
            if spec.needs_arbitration:
                samples = []
                valued: dict[tuple[str, ...], tuple[int, dict]] = {}
                for ctx in state.pending:
                    scored = valued.get(ctx.observed)
                    if scored is None:
                        scored = valued[ctx.observed] = evaluate_read(
                            spec, ctx, arbitration
                        )
                    value, details = scored
                    if value > 0:
                        samples.append(MetricSample(
                            agent=ctx.agent, time=ctx.time,
                            value=value, details=details,
                        ))
            else:
                samples = state.evidence.get(spec.expect, [])
            results.append(MetricResult(
                metric=spec.name,
                value=aggregate(spec, samples),
                samples=tuple(samples),
            ))
        return tuple(results)

    # -- telemetry ----------------------------------------------------

    def state_size(self) -> int:
        """Retained state atoms across all open tests."""
        total = sum(checker.state_size()
                    for checker in self._checkers)
        for state in self._tests.values():
            total += len(state.writes_keyed)
            total += sum(len(samples)
                         for samples in state.evidence.values())
            total += len(state.pending)
        return total
