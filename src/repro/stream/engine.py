"""The online anomaly-detection engine.

:class:`StreamEngine` fans one canonical-order operation stream out to
the four session checkers and the pairwise view machine — which is
both divergence checkers and both divergence-window trackers
(:mod:`repro.core.anomalies.pairwise`) — plus the metric evaluator,
when asked, and distills every closed test into a
:class:`~repro.methodology.runner.TestRecord` — the one place a record
is built from checker output;
:func:`~repro.methodology.runner.analyze_trace` is this engine run to
completion over a finished trace.  What is left to prove is *feed*
parity (sorted replay == live sequencer == archived events), enforced
by the tests and the ``stream`` CI gate.

Memory model: per *open* test the engine holds O(agents x active-keys)
checker state, one table of the test's distinct views shared by the
whole divergence family, plus O(1) counters.  Checker state is
allocated on first evidence — an agent's sessions, seen-sets, views
and emitted lists appear when it first writes, reads or fires — and
the pair table is one layout shared by every test with the same
agents, so a calm test costs a handful of containers to open and
close.  A closed test's state is dropped by every consumer and only
its distilled record is retained, in a ring bounded by the **eviction
horizon** (``horizon`` closed records; older ones fall off).
:meth:`StreamEngine.state_size` sums every layer, each shared atom
once, so telemetry — and the throughput benchmark's bounded-memory
assertion — measures the real footprint; it costs O(open tests), a
retained record's atoms being counted once as it enters the ring and
once as it falls off.
Cost model (``docs/stream.md``): dispatch is per operation; everything
expensive follows view *changes*, which polling agents rarely make —
a divergence predicate runs once per distinct view pair, a session
predicate once per operation (the evaluator folds what the engine's
own checkers fire), and an operation that fires nothing allocates
nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.anomalies.base import (
    ALL_ANOMALIES,
    AnomalyObservation,
)
from repro.core.anomalies.content_divergence import CONTENT
from repro.core.anomalies.order_divergence import ORDER
from repro.core.anomalies.pairwise import PairwiseViews
from repro.core.anomalies.registry import TraceReport, session_checkers
from repro.core.stream import StreamOp, TestMeta
from repro.core.trace import TestTrace
from repro.core.windows import window_results
from repro.errors import AnalysisError
from repro.methodology.records import TestRecord
from repro.obs.context import ObsContext
from repro.obs.events import WindowEvent
from repro.relations.streaming import StreamingMetricEvaluator

__all__ = ["Emission", "StreamEngine"]

#: Default eviction horizon: closed-test records retained by the engine.
DEFAULT_HORIZON = 64


@dataclass(frozen=True)
class Emission:
    """What one operation triggered, live."""

    observations: tuple[AnomalyObservation, ...] = ()
    window_events: tuple[WindowEvent, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.observations or self.window_events)


#: What an operation that fired nothing returns.
_NOTHING = Emission()


@dataclass(slots=True)
class _TestCounters:
    """Per-open-test bookkeeping outside the checkers."""

    reads: dict[str, int]
    writes: dict[str, int]
    #: Stream times never decrease within a test: first op to latest.
    first_time: float | None = None
    last_time: float | None = None


class StreamEngine:
    """Fan-out hub: one op stream in, live emissions + records out.

    Lifecycle mirrors the checkers' — ``open_test`` / ``observe`` (in
    canonical stream order) / ``close_test`` — and multiple tests may
    be open at once (the fleet interleaves shards; a trace-event file
    may interleave tests).
    """

    def __init__(self, horizon: int | None = DEFAULT_HORIZON,
                 obs: ObsContext | None = None,
                 metrics: tuple = ()):
        #: Optional observability context.  Updated only at test
        #: closure, timestamped from the closed test's own stream
        #: times — so exports depend on the operation stream alone,
        #: never on host scheduling.
        self.obs = obs
        self.checkers = session_checkers()
        #: Both divergence checkers and both window trackers.
        self.divergence = PairwiseViews((CONTENT, ORDER))
        #: Optional relation-layer metric evaluator: ``metrics`` is a
        #: tuple of resolved :class:`repro.relations.spec.MetricSpec`
        #: objects; results ride each closed test's record.  It folds
        #: what ``checkers`` fire rather than running its own.
        self.metric_evaluator = (
            StreamingMetricEvaluator(metrics, fed=True)
            if metrics else None)
        self._counters: dict[str, _TestCounters] = {}
        #: Distilled records of closed tests, newest last; bounded by
        #: the eviction horizon (None = keep everything).  Read-only:
        #: the engine keeps its atom count in step with it.
        self.results: deque[TestRecord] = deque(maxlen=horizon)
        #: State atoms of each record in ``results``, and their sum.
        self._result_atoms: deque[int] = deque(maxlen=horizon)
        self._retained = 0
        self.tests_closed = 0
        self.operations_seen = 0
        #: Authoritative totals, updated as each test closes.
        self.anomaly_counts: dict[str, int] = {
            kind: 0 for kind in ALL_ANOMALIES
        }

    # -- lifecycle ----------------------------------------------------

    def open_test(self, meta: TestMeta) -> None:
        if meta.test_id in self._counters:
            raise AnalysisError(f"test {meta.test_id!r} is already open")
        self._counters[meta.test_id] = _TestCounters(
            reads={agent: 0 for agent in meta.agents},
            writes={agent: 0 for agent in meta.agents},
        )
        for checker in self.checkers:
            checker.open_test(meta)
        if self.metric_evaluator is not None:
            self.metric_evaluator.open_test(meta)
        self.divergence.open_test(meta)

    def observe(self, meta: TestMeta, sop: StreamOp) -> Emission:
        counters = self._counters[meta.test_id]
        if counters.first_time is None:
            counters.first_time = sop.time
        counters.last_time = sop.time
        self.operations_seen += 1

        fired = ()
        for checker in self.checkers:
            observations = checker.observe(meta, sop)
            if observations:
                fired = fired + observations if fired else observations
        if self.metric_evaluator is not None:
            self.metric_evaluator.observe(meta, sop, fired)
        if sop.is_read:
            counters.reads[sop.agent] += 1
            events = self.divergence.observe(meta, sop)
        else:
            counters.writes[sop.agent] += 1
            events = ()
        if not fired and not events:
            return _NOTHING
        return Emission(tuple(fired), tuple(events))

    def close_test(self, meta: TestMeta,
                   trace: TestTrace | None = None) -> TestRecord:
        """Distill and retire one test.

        Pass the trace only to embed it in the record (the
        ``keep_traces`` path); the analysis itself never touches it.
        """
        counters = self._counters.pop(meta.test_id)
        observations: list[AnomalyObservation] = []
        for checker in self.checkers:
            closed = checker.close_test(meta)
            self.anomaly_counts[checker.anomaly] += len(closed)
            observations.extend(closed)
        views, _ = self.divergence.close_test(meta)
        for k, kind in enumerate(self.divergence.kinds):
            closed = views.observations(k)
            self.anomaly_counts[kind.anomaly] += len(closed)
            observations.extend(closed)
        report = TraceReport.from_observations(
            meta.test_id, meta.service, meta.test_type, meta.agents,
            observations,
        )
        metric_results: tuple = ()
        if self.metric_evaluator is not None:
            metric_results = self.metric_evaluator.close_test(meta)
        duration = 0.0
        if counters.first_time is not None:
            duration = counters.last_time - counters.first_time
        record = TestRecord(
            test_id=meta.test_id,
            test_type=meta.test_type,
            report=report,
            content_windows=window_results(views, 0),
            order_windows=window_results(views, 1),
            reads_per_agent=counters.reads,
            writes_per_agent=counters.writes,
            duration=duration,
            trace=trace,
            metrics=metric_results,
        )
        self._retain(record, 1 + len(observations) + sum(
            len(result.samples) for result in metric_results))
        self.tests_closed += 1
        if self.obs is not None:
            at = counters.last_time if counters.last_time is not None \
                else 0.0
            metrics = self.obs.metrics
            metrics.counter("stream.tests_closed_total",
                            service=meta.service).inc(at=at)
            ops = (sum(counters.reads.values())
                   + sum(counters.writes.values()))
            metrics.counter("stream.operations_total",
                            service=meta.service).inc(ops, at=at)
            metrics.gauge("stream.state_size").set(
                self.state_size(), at=at
            )
            metrics.gauge("stream.open_tests").set(
                self.open_tests, at=at
            )
            for result in metric_results:
                metrics.counter(
                    "relations.samples_total",
                    service=meta.service, metric=result.metric,
                ).inc(len(result.samples), at=at)
                metrics.counter(
                    "relations.value_total",
                    service=meta.service, metric=result.metric,
                ).inc(result.value, at=at)
        return record

    def _retain(self, record: TestRecord, atoms: int) -> None:
        """Append to the ring, keeping its atom count in step."""
        sizes = self._result_atoms
        if len(sizes) == sizes.maxlen and sizes:
            self._retained -= sizes[0]  # the oldest falls off
        sizes.append(atoms)
        self.results.append(record)
        if sizes:
            self._retained += atoms

    # -- telemetry ----------------------------------------------------

    @property
    def open_tests(self) -> int:
        return len(self._counters)

    def state_size(self) -> int:
        """Retained state atoms across checkers, trackers, results."""
        total = sum(c.state_size() for c in self.checkers)
        total += self.divergence.state_size()
        if self.metric_evaluator is not None:
            total += self.metric_evaluator.state_size()
        for counters in self._counters.values():
            total += len(counters.reads) + len(counters.writes)
        return total + self._retained

    def stats(self) -> dict[str, object]:
        """One snapshot for the live telemetry line."""
        return {
            "open_tests": self.open_tests,
            "tests_closed": self.tests_closed,
            "operations": self.operations_seen,
            "state_size": self.state_size(),
            "anomalies": dict(self.anomaly_counts),
        }
