"""Bounded-memory incremental evaluation of metric specs.

:class:`StreamingMetricEvaluator` is the one metric evaluator.  It has
the :class:`~repro.core.anomalies.base.AnomalyChecker` lifecycle —
``open_test`` / ``observe`` (canonical stream order) / ``close_test``
— and produces, per closed test, one
:class:`~repro.relations.spec.MetricResult` per spec
(:func:`~repro.relations.batch.evaluate_metrics` runs it to completion
over a finished trace):

* ``missing`` specs are final the moment a read arrives: the per-agent
  prefix property of canonical order guarantees the agent's own
  completed writes and every earlier view have already streamed in, so
  the sample is emitted (into a per-spec buffer) immediately.
* ``relaxation``/``inversion`` specs rank views against the
  *arbitration* order over all of the test's logged writes — a total
  order no prefix of the stream can pin down (a later-arriving write
  may carry an earlier corrected invocation).  Their reads are parked
  as bare view snapshots and valued at ``close_test``, when the
  arbitration order is complete; this is the same defer-to-resolution
  discipline the writes-follow-reads checker uses.

All state is per *open* test and dropped whole at close;
:meth:`state_size` counts every retained atom so the engine's
bounded-memory telemetry covers the metric layer too.
"""

from __future__ import annotations

from bisect import insort

from repro.core.stream import StreamOp, TestMeta
from repro.core.trace import WriteOp
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

#: ``missing`` specs never consult the arbitration order.
_NO_ARBITRATION = Arbitration(order=(), rank={})


class _MetricState:
    """Per-open-test relation state."""

    __slots__ = ("writes_keyed", "own_writes", "seen", "immediate",
                 "pending")

    def __init__(self, meta: TestMeta,
                 immediate: tuple[MetricSpec, ...]) -> None:
        #: (corrected_invoke, seq, message_id) per logged write.
        self.writes_keyed: list[tuple[float, int, str]] = []
        #: agent -> [(invoke_local, seq, message_id, response_local)],
        #: in session order.
        self.own_writes: dict[
            str, list[tuple[float, int, str, float]]
        ] = {agent: [] for agent in meta.agents}
        #: agent -> union of ids its earlier reads returned.
        self.seen: dict[str, set[str]] = {
            agent: set() for agent in meta.agents
        }
        #: spec name -> nonzero samples, in arrival (canonical) order.
        self.immediate: dict[str, list[MetricSample]] = {
            spec.name: [] for spec in immediate
        }
        #: View snapshots awaiting the final arbitration order.
        self.pending: list[ReadContext] = []


class StreamingMetricEvaluator:
    """Evaluate metric specs over an interleaved operation stream."""

    def __init__(self, specs: tuple[MetricSpec, ...]) -> None:
        self.specs = tuple(specs)
        self._immediate = tuple(
            spec for spec in self.specs if not spec.needs_arbitration
        )
        self._deferred = tuple(
            spec for spec in self.specs if spec.needs_arbitration
        )
        self._needs_own = any(
            spec.expect == "own_completed" for spec in self._immediate
        )
        self._needs_seen = any(
            spec.expect == "seen_before" for spec in self._immediate
        )
        self._tests: dict[str, _MetricState] = {}

    # -- lifecycle ----------------------------------------------------

    def open_test(self, meta: TestMeta) -> None:
        self._tests[meta.test_id] = _MetricState(
            meta, self._immediate
        )

    def observe(self, meta: TestMeta, sop: StreamOp) -> None:
        state = self._tests[meta.test_id]
        op = sop.op
        if isinstance(op, WriteOp):
            state.writes_keyed.append(
                (sop.invoke, sop.seq, op.message_id)
            )
            if self._needs_own:
                insort(state.own_writes[op.agent],
                       (op.invoke_local, sop.seq, op.message_id,
                        op.response_local))
            return
        completed: tuple[str, ...] = ()
        if self._needs_own:
            completed = tuple(
                mid
                for _, _, mid, response_local in
                state.own_writes[op.agent]
                if response_local <= op.invoke_local
            )
        ctx = ReadContext(
            agent=op.agent,
            time=sop.time,
            observed=op.observed,
            own_completed=completed,
            seen_before=frozenset(state.seen[op.agent])
            if self._needs_seen else frozenset(),
        )
        for spec in self._immediate:
            value, details = evaluate_read(spec, ctx, _NO_ARBITRATION)
            if value > 0:
                state.immediate[spec.name].append(MetricSample(
                    agent=ctx.agent, time=ctx.time,
                    value=value, details=details,
                ))
        if self._deferred:
            state.pending.append(ReadContext(
                agent=op.agent, time=sop.time, observed=op.observed,
            ))
        if self._needs_seen:
            state.seen[op.agent].update(op.observed)

    def close_test(self, meta: TestMeta) -> tuple[MetricResult, ...]:
        """Finish one test: resolve deferred specs, drop all state."""
        state = self._tests.pop(meta.test_id)
        arbitration = Arbitration.from_keyed(state.writes_keyed)
        results: list[MetricResult] = []
        for spec in self.specs:
            if spec.needs_arbitration:
                samples = []
                for ctx in state.pending:
                    value, details = evaluate_read(
                        spec, ctx, arbitration
                    )
                    if value > 0:
                        samples.append(MetricSample(
                            agent=ctx.agent, time=ctx.time,
                            value=value, details=details,
                        ))
            else:
                samples = state.immediate[spec.name]
            results.append(MetricResult(
                metric=spec.name,
                value=aggregate(spec, samples),
                samples=tuple(samples),
            ))
        return tuple(results)

    # -- telemetry ----------------------------------------------------

    def state_size(self) -> int:
        """Retained state atoms across all open tests."""
        total = 0
        for state in self._tests.values():
            total += len(state.writes_keyed)
            total += sum(len(entries)
                         for entries in state.own_writes.values())
            total += sum(len(ids) for ids in state.seen.values())
            total += sum(len(samples)
                         for samples in state.immediate.values())
            total += len(state.pending)
        return total
