"""Unit coverage for the repro.stream engine and its plumbing.

Feed parity (sorted replay == live sequencer == archived events) is
proven in ``tests/test_stream_parity.py``; these tests pin the
*streaming-side* behaviors parity alone cannot see — canonical
ordering, live emission timing, window open/close events, the
watermark sequencer's
buffering, the eviction horizon, telemetry accounting, and the
trace-event JSONL round trip.
"""

import gc
import io as stdio
import json
import tracemalloc

import pytest

from repro.cli import main
from repro.core.anomalies import AnomalyObservation, TraceReport, pairwise
from repro.core.windows import content_divergence_windows
from repro.errors import AnalysisError
from repro.io import (
    TRACE_EVENT_SCHEMA_VERSION,
    TraceEventWriter,
    iter_trace_events,
    operation_from_dict,
    operation_to_dict,
)
from repro.methodology.runner import analyze_trace
from repro.stream import (
    OpIngest,
    StreamEngine,
    TestMeta,
    record_mismatches,
    replay_trace,
    stream_order,
)
from repro.stream.ingest import feed_events
from tests.helpers import make_trace, read, write


def ryw_trace(test_id="t-ryw"):
    """oregon's second read misses its own completed write m2."""
    return make_trace([
        write("oregon", "m1", 0.0),
        read("oregon", ("m1",), 0.2),
        write("oregon", "m2", 0.4),
        read("oregon", ("m1",), 0.6),
        read("tokyo", ("m1", "m2"), 0.8),
    ], test_id=test_id)


def divergent_trace(test_id="t-div"):
    """oregon and tokyo each miss a message the other sees (content
    divergence is cross-missing), then reconverge."""
    return make_trace([
        write("ireland", "m1", 0.0),
        write("ireland", "m2", 0.2),
        read("oregon", ("m1",), 0.5),
        read("tokyo", ("m2",), 0.6),
        read("oregon", ("m1", "m2"), 1.0),
        read("tokyo", ("m1", "m2"), 1.4),
        read("oregon", ("m1", "m2"), 1.8),
        read("tokyo", ("m1", "m2"), 1.9),
    ], test_id=test_id)


class TestStreamOrder:
    def test_sorted_by_corrected_response(self):
        trace = make_trace([
            write("oregon", "m1", 1.0),
            read("tokyo", ("m1",), 0.0),
            write("tokyo", "m2", 0.5),
        ], clock_deltas={"oregon": 2.0})
        ordered = stream_order(trace)
        assert [sop.time for sop in ordered] == sorted(
            sop.time for sop in ordered
        )
        # oregon's write responds locally at 1.1 but its clock runs
        # two seconds ahead (corrected = local - delta = -0.9), so it
        # streams first.
        assert ordered[0].op.message_id == "m1"

    def test_writes_precede_reads_on_ties(self):
        trace = make_trace([
            read("tokyo", (), 0.0, response=0.1),
            write("oregon", "m1", 0.0, response=0.1),
        ])
        ordered = stream_order(trace)
        assert ordered[0].is_write
        assert not ordered[1].is_write

    def test_restriction_to_one_agent_is_session_order(self):
        """The invariant the session checkers lean on."""
        trace = divergent_trace()
        ordered = stream_order(trace)
        for agent in trace.agents:
            local = [sop.op for sop in ordered
                     if sop.agent == agent]
            assert local == sorted(
                local, key=lambda op: op.response_local
            )


class TestStreamEngine:
    def test_live_emission_at_violating_read(self):
        """The RYW observation surfaces the moment the read streams,
        not at close — the whole point of the online engine."""
        trace = ryw_trace()
        engine = StreamEngine()
        meta = TestMeta.from_trace(trace)
        engine.open_test(meta)
        live = []
        for sop in stream_order(trace, meta):
            emission = engine.observe(meta, sop)
            live.extend(emission.observations)
        assert [obs.anomaly for obs in live] == ["read_your_writes"]
        assert live[0].details["missing"] == ("m2",)
        record = engine.close_test(meta)
        assert record.report.count("read_your_writes") == 1
        assert engine.anomaly_counts["read_your_writes"] == 1

    def test_horizon_bounds_retained_records(self):
        engine = StreamEngine(horizon=2)
        for index in range(5):
            replay_trace(ryw_trace(f"t-{index}"), engine)
        assert engine.tests_closed == 5
        assert [r.test_id for r in engine.results] == ["t-3", "t-4"]
        # Counts are authoritative even after eviction.
        assert engine.anomaly_counts["read_your_writes"] == 5

    def test_state_drops_at_close(self):
        engine = StreamEngine(horizon=1)
        trace = ryw_trace()
        meta = TestMeta.from_trace(trace)
        engine.open_test(meta)
        for sop in stream_order(trace, meta):
            engine.observe(meta, sop)
        assert engine.open_tests == 1
        mid_state = engine.state_size()
        assert mid_state > 0
        engine.close_test(meta)
        assert engine.open_tests == 0
        # All that remains is the one retained record.
        assert engine.state_size() < mid_state

    @pytest.mark.parametrize("horizon", [0, 1, 2, None])
    def test_ring_atoms_match_the_retained_records(self, horizon):
        """``state_size`` counts each record as it enters the ring and
        uncounts it as it falls off: with no test open it is exactly
        the atoms of the records still retained."""
        engine = StreamEngine(horizon=horizon)
        for index in range(4):
            replay_trace(ryw_trace(f"t-{index}"), engine)
            assert engine.state_size() == sum(
                1 + sum(map(len, record.report.observations.values()))
                for record in engine.results)
        assert len(engine.results) == (4 if horizon is None else horizon)

    def test_a_calm_open_test_costs_at_most_6000_traced_bytes(self):
        """Checker state is born on first evidence and the pair table
        is shared: 2,000 open four-agent cohorts (three empty reads,
        one write) trace under 6,000 bytes each, counters and record
        included (an eagerly allocated checker set per test came to
        ~9,600)."""
        agents = ("s0", "s1", "s2", "s3")
        calm = make_trace(
            [read(agent, (), float(index))
             for index, agent in enumerate(agents[1:])]
            + [write("s0", "m0", 3.0)], agents=agents)
        ops = stream_order(calm)
        count = 2_000
        metas = [TestMeta(test_id=f"calm-{index}", service="calm",
                          test_type="test1", agents=agents)
                 for index in range(count)]
        engine = StreamEngine(horizon=1)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for meta in metas:
                engine.open_test(meta)
                for sop in ops:
                    engine.observe(meta, sop)
            for meta in metas:
                engine.close_test(meta)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert engine.tests_closed == count
        assert engine.state_size() == 1
        assert peak / count <= 6_000

    def test_one_pair_layout_whatever_the_agent_names(self):
        """Agent names come from input streams: 1,000 distinct agent
        tuples leave one pair layout alive, the last one's."""
        engine = StreamEngine(horizon=1)
        for index in range(1_000):
            agents = (f"a{index}", f"b{index}", f"c{index}")
            replay_trace(make_trace(
                [write(agents[0], "m", 0.0),
                 read(agents[1], ("m",), 1.0)],
                agents=agents, test_id=f"t-{index}"), engine)
        gc.collect()
        layouts = [obj for obj in gc.get_objects()
                   if isinstance(obj, pairwise._Layout)]
        assert [layout.agents for layout in layouts] == [agents]

    def test_stats_snapshot(self):
        engine = StreamEngine()
        replay_trace(ryw_trace(), engine)
        stats = engine.stats()
        assert stats["tests_closed"] == 1
        assert stats["open_tests"] == 0
        assert stats["operations"] == 5
        assert stats["anomalies"]["read_your_writes"] == 1


class TestWindowEvents:
    def test_events_mirror_batch_windows(self):
        trace = divergent_trace()
        engine = StreamEngine()
        meta = TestMeta.from_trace(trace)
        engine.open_test(meta)
        events = []
        for sop in stream_order(trace, meta):
            events.extend(engine.observe(meta, sop).window_events)
        record = engine.close_test(meta)

        pair = ("oregon", "tokyo")
        batch = content_divergence_windows(trace, "oregon", "tokyo")
        assert record.content_windows[pair] == batch
        assert not batch.converged or batch.intervals

        content = [e for e in events
                   if e.kind == "content" and e.pair == pair]
        # Live transitions replay exactly the batch intervals: one
        # opened (matching each interval start) and, once the pair
        # reconverges, one closed carrying that start.
        opened = [e.time for e in content if e.action == "opened"]
        closed = [(e.start, e.time) for e in content
                  if e.action == "closed"]
        assert opened == [start for start, _ in batch.intervals]
        assert closed == list(batch.intervals)

    def test_no_events_for_agreeing_pair(self):
        trace = make_trace([
            write("ireland", "m1", 0.0),
            read("oregon", ("m1",), 0.5),
            read("tokyo", ("m1",), 0.6),
        ])
        engine = StreamEngine()
        meta = TestMeta.from_trace(trace)
        engine.open_test(meta)
        events = []
        for sop in stream_order(trace, meta):
            events.extend(engine.observe(meta, sop).window_events)
        record = engine.close_test(meta)
        assert events == []
        assert all(result.intervals == ()
                   for result in record.content_windows.values())


class TestOpIngest:
    def feed(self, ingest, trace):
        ingest.test_opened(trace)
        for op in trace.operations:
            ingest.operation(trace, op)
        ingest.test_closed(trace)

    def test_watermark_holds_ops_until_all_agents_logged(self):
        trace = ryw_trace()
        ingest = OpIngest()
        ingest.test_opened(trace)
        # Only oregon has logged: everything buffers behind the
        # watermark (tokyo could still deliver an earlier op).
        for op in trace.operations[:4]:
            ingest.operation(trace, op)
        assert ingest.state_size() == 4
        assert ingest.engine.operations_seen == 0
        ingest.operation(trace, trace.operations[4])
        ingest.test_closed(trace)
        assert ingest.state_size() == 0
        assert ingest.engine.operations_seen == 5

    def test_live_record_matches_batch(self):
        trace = ryw_trace()
        records = []
        ingest = OpIngest(
            on_record=lambda meta, record: records.append(record))
        self.feed(ingest, trace)
        (record,) = records
        assert record_mismatches(analyze_trace(trace), record) == []

    def test_interleaved_tests_stay_independent(self):
        first, second = ryw_trace("t-a"), divergent_trace("t-b")
        records = []
        ingest = OpIngest(
            on_record=lambda meta, record: records.append(record))
        ingest.test_opened(first)
        ingest.test_opened(second)
        for op in first.operations:
            ingest.operation(first, op)
        for op in second.operations:
            ingest.operation(second, op)
        assert ingest.engine.open_tests == 2
        ingest.test_closed(first)
        ingest.test_closed(second)
        assert [record.test_id for record in records] == ["t-a", "t-b"]
        for trace, record in zip((first, second), records):
            assert record_mismatches(analyze_trace(trace), record) == []


class TestTraceEventRoundTrip:
    def write_events(self, traces):
        sink = stdio.StringIO()
        writer = TraceEventWriter(sink)
        for trace in traces:
            writer.test_opened(trace)
            for op in trace.operations:
                writer.operation(trace, op)
            writer.test_closed(trace)
        return sink.getvalue()

    def test_replay_reproduces_batch_records(self):
        traces = [ryw_trace(), divergent_trace()]
        payload = self.write_events(traces)
        records = []
        ingest = OpIngest(
            on_record=lambda meta, record: records.append(record))
        events = list(feed_events(
            iter_trace_events(payload.splitlines()), ingest
        ))
        assert [e["event"] for e in events] == [
            "test_open", *(["op"] * 5), "test_close",
            "test_open", *(["op"] * 8), "test_close",
        ]
        assert [record.test_id for record in records] == \
            [trace.test_id for trace in traces]
        for trace, record in zip(traces, records):
            assert record_mismatches(analyze_trace(trace), record) == []

    def test_operation_dict_round_trip(self):
        for op in ryw_trace().operations:
            assert operation_from_dict(operation_to_dict(op)) == op

    def test_schema_version_mismatch_rejected(self):
        line = ('{"event": "test_open", "schema_version": '
                f'{TRACE_EVENT_SCHEMA_VERSION + 1}, "test_id": "t"}}')
        with pytest.raises(AnalysisError):
            list(iter_trace_events([line]))

    @pytest.mark.parametrize("bad, complaint", [
        ('{"event": "op", "test_id": "t-ry', "unreadable JSON"),
        ('["event", "op"]', "not a JSON object"),
    ])
    def test_damaged_line_is_named_by_number(self, bad, complaint):
        lines = self.write_events([ryw_trace()]).splitlines()
        lines.insert(2, bad)
        events = iter_trace_events(lines)
        assert [next(events)["event"] for _ in range(2)] == \
            ["test_open", "op"]
        with pytest.raises(AnalysisError,
                           match=f"trace-event line 3: {complaint}"):
            next(events)

    @pytest.mark.parametrize("tail", ['{"event": "op", "te', "[1]\n"])
    def test_cli_replay_of_a_damaged_file_is_one_line(
            self, tail, tmp_path, capsys):
        path = tmp_path / "run.ops.jsonl"
        payload = self.write_events([ryw_trace()])
        path.write_text(payload + tail)
        line_number = payload.count("\n") + 1
        assert main(["stream", "--from-trace", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(
            f"stream: {path}: trace-event line {line_number}: ")

    def drop_key(self, event, key):
        """The trace's event lines with ``key`` removed from the first
        ``event`` line."""
        lines = self.write_events([ryw_trace()]).splitlines()
        index = next(number for number, line in enumerate(lines)
                     if f'"event": "{event}"' in line)
        payload = json.loads(lines[index])
        del payload[key]
        lines[index] = json.dumps(payload)
        return lines

    @pytest.mark.parametrize("event, key", [
        ("test_open", "service"),
        ("op", "agent"),
    ])
    def test_event_lacking_a_key_is_named(self, event, key):
        lines = self.drop_key(event, key)
        with pytest.raises(AnalysisError,
                           match=f"{event} event lacks key '{key}'"):
            list(feed_events(iter_trace_events(lines), OpIngest()))

    def test_cli_replay_of_an_event_lacking_a_key_is_one_line(
            self, tmp_path, capsys):
        path = tmp_path / "run.ops.jsonl"
        path.write_text('{"event":"test_open","test_id":"t"}\n')
        assert main(["stream", "--from-trace", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"stream: {path}: test_open event lacks key "
                        "'service'")

    def test_cli_replay_of_a_missing_file_is_one_line(self, tmp_path,
                                                      capsys):
        path = tmp_path / "nope.jsonl"
        assert main(["stream", "--from-trace", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"stream: {path}: cannot read: ")

    def test_op_for_unknown_test_rejected(self):
        trace = ryw_trace()
        op_line = [
            line for line in self.write_events([trace]).splitlines()
            if '"event": "op"' in line
        ][0]
        with pytest.raises(AnalysisError):
            list(feed_events(
                iter_trace_events([op_line]), OpIngest()
            ))


class TestTraceReportCombinators:
    def obs(self, anomaly, agent="oregon", time=1.0):
        return AnomalyObservation(anomaly=anomaly, agent=agent,
                                  time=time)

    def test_from_observations_prefills_all_kinds(self):
        report = TraceReport.from_observations(
            "t", "unit", "test1", ("oregon",),
            [self.obs("monotonic_reads")],
        )
        assert report.has("monotonic_reads")
        assert not report.has("read_your_writes")
        assert "content_divergence" in report.observations
