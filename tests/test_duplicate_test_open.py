"""A ``test_open`` for a test that is already open fails closed.

Re-opening an id mid-test used to overwrite the sequencer's buffer and
every checker's per-test state: the stream carried on and the record
that came out described the second half of the test only, as if it
were the whole.  ROADMAP item 4(a): never a silent partial load.
"""

import io

import pytest

from repro.core.stream import TestMeta
from repro.errors import AnalysisError
from repro.io import TraceEventWriter, iter_trace_events
from repro.methodology import CampaignConfig, run_campaign
from repro.stream import OpIngest, StreamEngine
from repro.stream.ingest import feed_events
from tests.helpers import make_trace, read, write


def event_lines(trace) -> list[str]:
    sink = io.StringIO()
    writer = TraceEventWriter(sink)
    writer.test_opened(trace)
    for op in trace.operations:
        writer.operation(trace, op)
    writer.test_closed(trace)
    return sink.getvalue().splitlines()


def replay(lines) -> list:
    ingest = OpIngest(StreamEngine())
    for _ in feed_events(iter_trace_events(lines), ingest):
        pass
    return list(ingest.engine.results)


def test_mid_test_duplicate_open_raises_instead_of_dropping_reads():
    result = run_campaign("googleplus", CampaignConfig(
        num_tests=1, seed=3, keep_traces=True))
    trace = next(record.trace for record in result.records
                 if record.test_type == "test1")
    lines = event_lines(trace)
    (whole,) = replay(lines)
    assert sum(whole.reads_per_agent.values()) == len(trace.reads())

    middle = len(lines) // 2
    with pytest.raises(AnalysisError, match=trace.test_id):
        replay(lines[:middle] + lines[:1] + lines[middle:])


def test_engine_refuses_a_second_open_of_an_open_test():
    engine = StreamEngine()
    meta = TestMeta.from_trace(make_trace([], test_id="twice"))
    engine.open_test(meta)
    with pytest.raises(AnalysisError, match="'twice' is already open"):
        engine.open_test(meta)


def test_reopening_an_id_after_its_close_stays_legal():
    trace = make_trace([write("oregon", "m1", 0.0),
                        read("oregon", ("m1",), 1.0)], test_id="again")
    first, second = replay(event_lines(trace) * 2)
    assert first == second
    assert first.reads_per_agent["oregon"] == 1
