"""Bounded-memory incremental evaluation of metric specs.

:class:`StreamingMetricEvaluator` is the one metric evaluator.  It has
the :class:`~repro.core.anomalies.base.AnomalyChecker` lifecycle —
``open_test`` / ``observe`` (canonical stream order) / ``close_test``
— and produces, per closed test, one
:class:`~repro.relations.spec.MetricResult` per spec
(:func:`~repro.relations.batch.evaluate_metrics` runs it to completion
over a finished trace):

* ``missing`` specs fold a checker's evidence: every observation the
  ``MonotonicReadsChecker`` fires becomes a sample valued by the size
  of its ``missing`` set, in stream order — so the §III predicate has
  exactly one implementation, its checker, and one evaluation per
  operation: on its own the evaluator owns that checker; inside
  :class:`~repro.stream.engine.StreamEngine`, which runs it anyway,
  it folds what the engine's checker fires.
* ``relaxation``/``inversion`` specs rank views against the minimal
  admissible arbitration over all of the test's logged writes
  (:func:`~repro.relations.spec.minimal_arbitration`) — an order no
  prefix of the stream can pin down (a later-arriving write may carry
  an earlier corrected invocation).  Their reads are parked as bare
  view snapshots and valued at ``close_test``, when every write is
  known — once per *distinct* view, of which alone the value is a
  function; the same defer-to-resolution discipline the
  writes-follow-reads checker uses.

All state — the owned checker's included — is per *open* test and
dropped whole at close; :meth:`state_size` counts every retained atom
so the engine's bounded-memory telemetry covers the metric layer too.
"""

from __future__ import annotations

from collections import Counter

from repro.core.anomalies.monotonic_reads import MonotonicReadsChecker
from repro.core.stream import StreamOp, TestMeta
from repro.relations.spec import (
    LoggedWrite,
    MetricResult,
    MetricSample,
    MetricSpec,
    ReadContext,
    aggregate,
    evaluate_read,
    minimal_arbitration,
)

__all__ = ["StreamingMetricEvaluator"]


class _MetricState:
    """Per-open-test relation state."""

    __slots__ = ("writes", "evidence", "pending")

    def __init__(self) -> None:
        self.writes: list[LoggedWrite] = []
        #: Monotonic-reads samples, in arrival (canonical) order.
        self.evidence: list[MetricSample] = []
        #: View snapshots awaiting the test's last write.
        self.pending: list[ReadContext] = []


class StreamingMetricEvaluator:
    """Evaluate metric specs over an interleaved operation stream.

    ``fed`` is internal wiring for ``StreamEngine``, which runs the
    monotonic-reads checker itself and hands :meth:`observe` what each
    operation fired; a fed evaluator owns no checker.
    """

    def __init__(self, specs: tuple[MetricSpec, ...],
                 fed: bool = False) -> None:
        self.specs = tuple(specs)
        self._deferred = any(
            spec.needs_arbitration for spec in self.specs
        )
        self._folds = not all(
            spec.needs_arbitration for spec in self.specs
        )
        self._checker = MonotonicReadsChecker() \
            if self._folds and not fed else None
        self._tests: dict[str, _MetricState] = {}

    # -- lifecycle ----------------------------------------------------

    def open_test(self, meta: TestMeta) -> None:
        self._tests[meta.test_id] = _MetricState()
        if self._checker is not None:
            self._checker.open_test(meta)

    def observe(self, meta: TestMeta, sop: StreamOp,
                fired=()) -> None:
        """Ingest one operation (and, when fed, what it ``fired``)."""
        state = self._tests[meta.test_id]
        if self._checker is not None:
            fired = self._checker.observe(meta, sop)
        if self._folds:
            state.evidence.extend(
                MetricSample(obs.agent, obs.time,
                             len(obs.details["missing"]), obs.details)
                for obs in fired
                if obs.anomaly == MonotonicReadsChecker.anomaly)
        op = sop.op
        if not sop.is_read:
            state.writes.append(LoggedWrite(
                sop.invoke, sop.seq, op.message_id, op.agent, sop.time))
        elif self._deferred:
            state.pending.append(
                ReadContext(op.agent, sop.time, op.observed))

    def close_test(self, meta: TestMeta) -> tuple[MetricResult, ...]:
        """Finish one test: resolve deferred specs, drop all state."""
        state = self._tests.pop(meta.test_id)
        if self._checker is not None:
            self._checker.close_test(meta)
        views = Counter(ctx.observed for ctx in state.pending)
        results: list[MetricResult] = []
        for spec in self.specs:
            if spec.needs_arbitration:
                arbitration = minimal_arbitration(
                    state.writes, views, spec.violation, meta.test_id)
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
                samples = state.evidence
            results.append(MetricResult(
                metric=spec.name,
                value=aggregate(spec, samples),
                samples=tuple(samples),
            ))
        return tuple(results)

    # -- telemetry ----------------------------------------------------

    def state_size(self) -> int:
        """Retained state atoms across all open tests."""
        total = 0 if self._checker is None \
            else self._checker.state_size()
        for state in self._tests.values():
            total += len(state.writes)
            total += len(state.evidence)
            total += len(state.pending)
        return total
