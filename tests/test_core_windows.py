"""Unit tests for divergence-window computation."""

import pytest

from repro.core import (
    content_divergence_windows,
    divergence_windows,
    order_divergence_windows,
)

from tests.helpers import make_trace, read, write


class TestContentWindows:
    def writes(self):
        return [write("oregon", "M1", 0.0), write("tokyo", "M2", 0.0)]

    def test_simple_divergence_window(self):
        # oregon sees only M1 from t=1.1; tokyo sees only M2 from t=1.1;
        # both converge to (M1, M2) at t=5.1.
        trace = make_trace(self.writes() + [
            read("oregon", ("M1",), 1.0),
            read("tokyo", ("M2",), 1.0),
            read("oregon", ("M1", "M2"), 5.0),
            read("tokyo", ("M1", "M2"), 5.0),
        ])
        result = content_divergence_windows(trace, "oregon", "tokyo")
        assert result.diverged
        assert result.converged
        # Divergence holds from the second 1.1-read until the first
        # 5.1-read (all corrected times equal; FIFO makes oregon's
        # 5.1-read close the window).
        assert result.largest == pytest.approx(4.0)
        assert result.total == pytest.approx(4.0)

    def test_paper_zero_window_example(self):
        # §IV: agent1 reads (M1) at t1, (M1,M2) at t2; agent2 reads
        # (M2) at t3, (M1,M2) at t4 with t1<t2<t3<t4.  Anomaly yes,
        # window zero.
        trace = make_trace(self.writes() + [
            read("oregon", ("M1",), 1.0),
            read("oregon", ("M1", "M2"), 2.0),
            read("tokyo", ("M2",), 3.0),
            read("tokyo", ("M1", "M2"), 4.0),
        ])
        result = content_divergence_windows(trace, "oregon", "tokyo")
        assert not result.diverged
        assert result.largest is None
        assert result.total == 0.0

    def test_unconverged_pair_is_flagged(self):
        trace = make_trace(self.writes() + [
            read("oregon", ("M1",), 1.0),
            read("tokyo", ("M2",), 2.0),
        ])
        result = content_divergence_windows(trace, "oregon", "tokyo")
        assert result.diverged
        assert not result.converged
        # Interval closed at the last observation for accounting.
        assert result.total == pytest.approx(0.0)

    def test_multiple_windows_and_largest(self):
        trace = make_trace(self.writes() + [
            # Window 1: [1.1, 2.1) - 1s
            read("oregon", ("M1",), 1.0),
            read("tokyo", ("M2",), 1.0),
            read("oregon", ("M1", "M2"), 2.0),
            read("tokyo", ("M1", "M2"), 2.0),
            # Window 2: [5.1, 8.1) - 3s (views regress)
            read("oregon", ("M1",), 5.0),
            read("tokyo", ("M2",), 5.0),
            read("oregon", ("M1", "M2"), 8.0),
            read("tokyo", ("M1", "M2"), 8.0),
        ])
        result = content_divergence_windows(trace, "oregon", "tokyo")
        assert len(result.intervals) == 2
        assert result.largest == pytest.approx(3.0)
        assert result.total == pytest.approx(4.0)

    def test_no_reads_means_no_divergence(self):
        trace = make_trace(self.writes())
        result = content_divergence_windows(trace, "oregon", "tokyo")
        assert not result.diverged
        assert result.converged

    def test_clock_deltas_shift_window_edges(self):
        # tokyo's clock is 2s fast; its reads get pulled 2s earlier on
        # the reference timeline, widening the overlap.
        trace = make_trace(
            self.writes() + [
                read("oregon", ("M1",), 1.0),
                read("tokyo", ("M2",), 3.0),   # corrected to 1.1
                read("oregon", ("M1", "M2"), 5.0),
                read("tokyo", ("M1", "M2"), 7.0),  # corrected to 5.1
            ],
            clock_deltas={"tokyo": 2.0},
        )
        result = content_divergence_windows(trace, "oregon", "tokyo")
        assert result.largest == pytest.approx(4.0)


class TestOrderWindows:
    def test_order_divergence_window(self):
        trace = make_trace([
            write("oregon", "M1", 0.0),
            write("tokyo", "M2", 0.0),
            read("oregon", ("M1", "M2"), 1.0),
            read("tokyo", ("M2", "M1"), 1.0),
            read("oregon", ("M1", "M2"), 6.0),
            read("tokyo", ("M1", "M2"), 6.0),
        ])
        result = order_divergence_windows(trace, "oregon", "tokyo")
        assert result.diverged
        assert result.converged
        assert result.largest == pytest.approx(5.0)

    def test_content_divergence_is_not_order_divergence(self):
        trace = make_trace([
            write("oregon", "M1", 0.0),
            write("tokyo", "M2", 0.0),
            read("oregon", ("M1",), 1.0),
            read("tokyo", ("M2",), 1.0),
        ])
        result = order_divergence_windows(trace, "oregon", "tokyo")
        assert not result.diverged


class TestGenericPredicate:
    def test_custom_predicate_is_applied(self):
        # Predicate: both views non-empty.
        trace = make_trace([
            write("oregon", "M1", 0.0),
            read("oregon", ("M1",), 1.0),
            read("tokyo", ("M1",), 2.0),
            read("tokyo", ("M1",), 3.0),
        ])
        result = divergence_windows(
            trace, "oregon", "tokyo",
            lambda a, b: bool(a) and bool(b),
        )
        assert result.diverged
        assert not result.converged  # predicate still true at the end

    def test_pair_is_sorted_in_result(self):
        trace = make_trace([read("tokyo", (), 0.0)])
        result = divergence_windows(
            trace, "tokyo", "oregon", lambda a, b: False
        )
        assert result.pair == ("oregon", "tokyo")
