"""Streaming shard execution for the fleet.

``run_fleet(..., stream=True)`` swaps the default shard runner for
:func:`run_stream_shard`: the campaign runs with an
:class:`~repro.stream.ingest.OpIngest` observer wired in and the
engine's online records substituted for the end-of-test re-check.  The
shard's :class:`~repro.methodology.runner.CampaignResult` is
bit-identical either way (feed parity), so fleet signatures,
artifact digests, and resume are unaffected — what changes is *when*
information is available:

* ``on_test`` fires after every test closes, giving the executor a
  per-test anomaly summary to forward as
  :class:`~repro.obs.events.ShardTestChecked` telemetry — in
  parallel mode workers pipe these to the host as interim messages
  while the shard is still running;
* with a ``trace_path``, every operation is appended to a trace-event
  JSONL file as it happens, so ``repro-consistency stream
  --from-trace`` (or ``--follow``) can re-analyze or watch the shard.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.core.stream import TestMeta
from repro.fleet.spec import ShardJob
from repro.io import TraceEventWriter
from repro.methodology.records import CampaignResult, TestRecord
from repro.methodology.runner import run_campaign
from repro.relations.registry import resolve_metrics
from repro.stream.engine import StreamEngine
from repro.stream.ingest import OpIngest

__all__ = ["run_stream_shard"]

#: Per-test callback: (meta, record, engine) after each test closes.
TestCallback = Callable[[TestMeta, TestRecord, StreamEngine], None]


class _FanObserver:
    """Forward every observer callback to several observers, in order."""

    def __init__(self, *observers) -> None:
        self._observers = observers

    def test_opened(self, trace) -> None:
        for observer in self._observers:
            observer.test_opened(trace)

    def operation(self, trace, op) -> None:
        for observer in self._observers:
            observer.operation(trace, op)

    def test_closed(self, trace) -> None:
        for observer in self._observers:
            observer.test_closed(trace)


def run_stream_shard(job: ShardJob,
                     on_test: TestCallback | None = None,
                     trace_path: str | Path | None = None
                     ) -> CampaignResult:
    """Run one shard through the streaming engine.

    Closed-test records are consumed by the campaign immediately, so
    the engine keeps a minimal eviction horizon; its state is the live
    checkers' only.
    """
    engine = StreamEngine(
        horizon=1, metrics=resolve_metrics(job.config.metrics))
    ingest = OpIngest(engine)
    if on_test is not None:
        ingest.on_record = (
            lambda meta, record: on_test(meta, record, engine)
        )
    observer = ingest
    trace_file = None
    if trace_path is not None:
        trace_path = Path(trace_path)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_file = trace_path.open("w", encoding="utf-8")
        observer = _FanObserver(TraceEventWriter(trace_file), ingest)
    try:
        return run_campaign(job.service, job.config,
                            observer=observer,
                            analyzer=ingest.analyzer)
    finally:
        if trace_file is not None:
            trace_file.close()
