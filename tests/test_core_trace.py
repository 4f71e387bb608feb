"""Unit tests for the operation-trace model."""

import pytest

from repro.core import ReadOp, WriteOp
from repro.core.anomalies import WritesFollowReadsChecker
from repro.errors import AnalysisError

from tests.helpers import assert_well_formed, make_trace, read, write


class TestOperations:
    def test_write_rejects_response_before_invoke(self):
        with pytest.raises(AnalysisError):
            WriteOp(agent="a", message_id="M1",
                    invoke_local=5.0, response_local=4.0)

    def test_read_rejects_response_before_invoke(self):
        with pytest.raises(AnalysisError):
            ReadOp(agent="a", observed=(), invoke_local=5.0,
                   response_local=4.0)

    def test_read_rejects_duplicate_ids(self):
        with pytest.raises(AnalysisError):
            ReadOp(agent="a", observed=("M1", "M1"),
                   invoke_local=0.0, response_local=1.0)

    def test_read_saw_and_position(self):
        op = read("oregon", ("M1", "M2"), 0.0)
        assert op.saw("M2")
        assert not op.saw("M9")
        assert op.position("M2") == 1

    def test_is_write_discriminator(self):
        assert write("oregon", "M1", 0.0).is_write
        assert not read("oregon", (), 0.0).is_write


class TestTraceViews:
    def make_simple_trace(self):
        return make_trace([
            write("oregon", "M1", 1.0),
            write("tokyo", "M2", 2.0),
            read("oregon", ("M1",), 1.5),
            read("oregon", ("M1", "M2"), 3.0),
            read("tokyo", ("M2",), 2.5),
        ])

    def test_record_rejects_unknown_agent(self):
        trace = make_trace([])
        with pytest.raises(AnalysisError, match="unknown agent"):
            trace.record(write("mars", "M1", 0.0))

    def test_writes_sorted_by_corrected_invoke(self):
        trace = self.make_simple_trace()
        assert [w.message_id for w in trace.writes()] == ["M1", "M2"]

    def test_reads_by_agent_in_session_order(self):
        trace = self.make_simple_trace()
        reads = trace.reads_by("oregon")
        assert [r.observed for r in reads] == [("M1",), ("M1", "M2")]

    def test_writes_by_agent(self):
        trace = self.make_simple_trace()
        assert [w.message_id for w in trace.writes_by("tokyo")] == ["M2"]
        assert trace.writes_by("ireland") == []

    def test_session_interleaves_reads_and_writes(self):
        trace = self.make_simple_trace()
        kinds = [op.is_write for op in trace.session("oregon")]
        assert kinds == [True, False, False]

    def test_message_ids_and_author(self):
        trace = self.make_simple_trace()
        assert trace.message_ids() == {"M1", "M2"}
        assert {w.message_id: w.agent for w in trace.writes()} == \
            {"M1": "oregon", "M2": "tokyo"}

    def test_agent_pairs_stable_order(self):
        trace = self.make_simple_trace()
        assert list(trace.agent_pairs()) == [
            ("oregon", "tokyo"),
            ("oregon", "ireland"),
            ("tokyo", "ireland"),
        ]

    def test_len_counts_operations(self):
        assert len(self.make_simple_trace()) == 5


class TestClockCorrection:
    def test_corrected_subtracts_delta(self):
        trace = make_trace(
            [read("oregon", (), 10.0)],
            clock_deltas={"oregon": 2.0},
        )
        op = trace.reads()[0]
        # local = reference + delta  =>  reference = local - delta
        assert trace.corrected_invoke(op) == pytest.approx(8.0)
        assert trace.corrected_response(op) == pytest.approx(8.1)

    def test_missing_delta_defaults_to_zero(self):
        trace = make_trace([read("oregon", (), 10.0)])
        assert trace.corrected("oregon", 10.0) == 10.0

    def test_cross_agent_ordering_uses_deltas(self):
        # tokyo's clock runs 100s ahead; corrected order must flip.
        trace = make_trace(
            [
                write("oregon", "M1", 50.0),
                write("tokyo", "M2", 101.0),
            ],
            clock_deltas={"tokyo": 100.0},
        )
        assert [w.message_id for w in trace.writes()] == ["M2", "M1"]


class TestDependencies:
    """A write's dependency set, as the WFR checker derives it: a third
    agent reads the dependent write alone, so every dependency is
    missing from its view."""

    @staticmethod
    def missing(trace):
        return [(o.details["write"], o.details["missing_dependencies"])
                for o in WritesFollowReadsChecker().check(trace)]

    def test_trigger_map_wins(self):
        # Tokyo read nothing before writing: generic mode would find
        # no dependency, the trigger map names one.
        trace = make_trace(
            [
                write("oregon", "M1", 0.0),
                write("tokyo", "M2", 2.0),
                read("ireland", ("M2",), 3.0),
            ],
            wfr_triggers={"M2": frozenset({"M1"})},
        )
        assert self.missing(trace) == [("M2", ("M1",))]

    def test_trigger_map_empty_for_unlisted_write(self):
        trace = make_trace(
            [
                write("oregon", "M1", 0.0),
                read("tokyo", ("M1",), 1.0),
                write("tokyo", "M2", 2.0),
                read("ireland", ("M2",), 3.0),
            ],
            wfr_triggers={"M9": frozenset({"M1"})},
        )
        assert self.missing(trace) == []

    def test_generic_mode_uses_prior_reads(self):
        trace = make_trace([
            write("oregon", "M1", 0.0),
            read("tokyo", ("M1",), 1.0),          # completes at 1.1
            write("tokyo", "M2", 2.0),            # after the read
            read("tokyo", ("M1", "M2"), 3.0),     # after the write
            write("tokyo", "M3", 4.0),
            read("ireland", ("M2",), 5.0),
            read("ireland", ("M3",), 6.0),
        ])
        # M3 depends on M1 and M2 (observed) but never on itself.
        assert self.missing(trace) == [("M2", ("M1",)),
                                       ("M3", ("M1", "M2"))]

    def test_generic_mode_ignores_reads_completing_after_write(self):
        trace = make_trace([
            write("oregon", "M1", 0.0),
            read("tokyo", ("M1",), 5.0),   # completes at 5.1
            write("tokyo", "M2", 5.05),    # invoked before read completed
            read("ireland", ("M2",), 6.0),
        ])
        assert self.missing(trace) == []


class TestValidation:
    def test_valid_trace_passes(self):
        trace = make_trace([
            write("oregon", "M1", 0.0),
            read("tokyo", ("M1",), 1.0),
        ])
        assert_well_formed(trace)

    def test_duplicate_write_id_rejected(self):
        trace = make_trace([
            write("oregon", "M1", 0.0),
            write("tokyo", "M1", 1.0),
        ])
        with pytest.raises(AnalysisError, match="written twice"):
            assert_well_formed(trace)

    def test_read_of_unknown_message_rejected(self):
        trace = make_trace([read("oregon", ("M9",), 0.0)])
        with pytest.raises(AnalysisError, match="never"):
            assert_well_formed(trace)
