"""Feeding the engine: replay ordering and the live sequencer.

Two ways operations reach a :class:`~repro.stream.engine.StreamEngine`:

* **Replay** — :func:`replay_trace` runs the engine to completion over
  a finished trace, sorted into canonical stream order
  (:func:`repro.core.stream.run_to_completion`; ``analyze_trace`` is
  this call on a fresh engine).
* **Live** — :class:`OpIngest` implements the campaign runner's
  :class:`~repro.methodology.runner.OperationObserver` protocol.
  Agents log operations in *true-time* order, which is not canonical
  order: corrected response times incorporate per-agent clock-delta
  estimates, so two operations close in true time may swap once
  corrected.  The sequencer restores canonical order with a watermark
  buffer — an operation is released only when every agent's latest
  corrected time has passed it, which is safe because one agent's
  corrected responses are non-decreasing (single monotonic clock, one
  delta per test).  The buffer holds at most the ops inside one
  clock-skew span, plus anything an agent that stopped logging leaves
  pinned until ``test_closed`` flushes the test.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.core.stream import StreamOp, TestMeta, run_to_completion
from repro.core.trace import Operation, TestTrace, WriteOp
from repro.errors import AnalysisError
from repro.io import operation_from_dict, trace_from_meta_dict
from repro.methodology.records import TestRecord
from repro.stream.engine import Emission, StreamEngine

__all__ = ["replay_trace", "OpIngest", "feed_events"]

#: Called with (meta, sop, emission) for every op that fired something.
EmissionCallback = Callable[[TestMeta, StreamOp, Emission], None]
#: Called with (meta, record) when a test closes.
RecordCallback = Callable[[TestMeta, TestRecord], None]


def replay_trace(trace: TestTrace, engine: StreamEngine) -> TestRecord:
    """Push one finished trace through the engine, return its record."""
    (record,) = run_to_completion([engine], trace)
    return record


@dataclass
class _LiveTest:
    """Sequencer state for one in-flight test."""

    meta: TestMeta
    #: Min-heap of stream ops (they order canonically).
    buffer: list[StreamOp] = field(default_factory=list)
    #: agent -> corrected response of its latest logged op.
    frontier: dict[str, float] = field(default_factory=dict)
    next_seq: int = 0


class OpIngest:
    """Live observer: true-time callbacks in, canonical stream out.

    The engine behind ``stream --from-trace`` / ``--follow``
    (:func:`feed_events`); it also wires into a running campaign as
    ``run_campaign(observer=OpIngest(...))``.  Each closed test's
    record goes to ``on_record`` and into the engine's
    horizon-bounded ``results`` ring; ``keep_traces`` embeds the
    finished trace in it.
    """

    def __init__(self, engine: StreamEngine | None = None,
                 on_emission: EmissionCallback | None = None,
                 on_record: RecordCallback | None = None,
                 keep_traces: bool = False):
        self.engine = engine if engine is not None else StreamEngine()
        self.on_emission = on_emission
        self.on_record = on_record
        self.keep_traces = keep_traces
        self._tests: dict[str, _LiveTest] = {}

    # -- OperationObserver protocol -----------------------------------

    def test_opened(self, trace: TestTrace) -> None:
        if trace.test_id in self._tests:
            raise AnalysisError(  # not: silently restart mid-test
                f"test {trace.test_id!r} opened again before its "
                f"test_close")
        meta = TestMeta.from_trace(trace)
        self._tests[trace.test_id] = _LiveTest(meta=meta)
        self.engine.open_test(meta)

    def operation(self, trace: TestTrace, op: Operation) -> None:
        live = self._tests[trace.test_id]
        meta = live.meta
        time = meta.corrected(op.agent, op.response_local)
        heapq.heappush(live.buffer, StreamOp(
            time, not isinstance(op, WriteOp), live.next_seq, op,
            meta.corrected(op.agent, op.invoke_local),
        ))
        live.next_seq += 1
        live.frontier[op.agent] = time
        self._release(live)

    def test_closed(self, trace: TestTrace) -> None:
        live = self._tests.pop(trace.test_id)
        self._drain(live, float("inf"))
        record = self.engine.close_test(
            live.meta, trace=trace if self.keep_traces else None
        )
        if self.on_record is not None:
            self.on_record(live.meta, record)

    # -- sequencing ---------------------------------------------------

    def _release(self, live: _LiveTest) -> None:
        """Emit every buffered op the watermark has safely passed.

        The watermark is the slowest agent's latest corrected time; an
        agent that has not logged yet pins it at -inf (everything
        waits — at test start that resolves with the first read
        burst).  Strictly-below comparison: an op *at* the watermark
        could still be preceded by a tied write from the slowest
        agent.
        """
        frontier = live.frontier
        if len(frontier) < len(live.meta.agents):
            return
        watermark = min(frontier.values())
        self._drain(live, watermark)

    def _drain(self, live: _LiveTest, watermark: float) -> None:
        meta = live.meta
        while live.buffer and live.buffer[0].time < watermark:
            sop = heapq.heappop(live.buffer)
            emission = self.engine.observe(meta, sop)
            if emission and self.on_emission is not None:
                self.on_emission(meta, sop, emission)

    def state_size(self) -> int:
        """Buffered (not yet released) operations across open tests."""
        return sum(len(live.buffer) for live in self._tests.values())


def feed_events(events: Iterable[dict],
                ingest: OpIngest) -> Iterator[dict]:
    """Drive an :class:`OpIngest` from parsed trace events.

    ``events`` is what :func:`repro.io.iter_trace_events` yields — the
    standalone entry point for JSONL trace files (fleet shard archives,
    ``run --trace-out`` output, live ``--follow`` tails).  Each event is
    re-yielded after it has been applied, so a caller can interleave
    telemetry at any cadence.  Tests still open when the iterator is
    exhausted are left open: a follow-mode consumer may resume them.
    An event that lacks a key or carries a mistyped value raises
    :class:`~repro.errors.AnalysisError` naming its kind.
    """
    shells: dict[str, TestTrace] = {}
    for event in events:
        kind = event.get("event")
        if kind == "test_open":
            try:
                shell = trace_from_meta_dict(event)
            except (KeyError, TypeError, ValueError) as exc:
                raise _malformed(kind, exc) from exc
            shells[shell.test_id] = shell
            ingest.test_opened(shell)
        elif kind == "op":
            try:
                shell = shells[event["test_id"]]
            except KeyError:
                raise AnalysisError(
                    f"op event for unknown test "
                    f"{event.get('test_id')!r} (missing test_open?)"
                ) from None
            try:
                op = operation_from_dict(event)
            except (KeyError, TypeError, ValueError) as exc:
                raise _malformed(kind, exc) from exc
            ingest.operation(shell, op)
        elif kind == "test_close":
            shell = shells.pop(event.get("test_id"), None)
            if shell is None:
                raise AnalysisError(
                    f"test_close for unknown test "
                    f"{event.get('test_id')!r}"
                )
            ingest.test_closed(shell)
        else:
            raise AnalysisError(
                f"unknown trace event kind {kind!r}"
            )
        yield event


def _malformed(kind: str, exc: Exception) -> AnalysisError:
    """The error for a ``kind`` event its decoder could not rebuild."""
    if isinstance(exc, KeyError):
        return AnalysisError(f"{kind} event lacks key {exc.args[0]!r}")
    return AnalysisError(f"malformed {kind} event: {exc}")
