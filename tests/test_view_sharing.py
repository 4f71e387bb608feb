"""A view is examined once: the sharing proven, the work counted.

``StreamEngine`` runs one pairwise view machine
(:mod:`repro.core.anomalies.pairwise`) under both divergence checkers
and both window trackers, and folds the observations its own
read-your-writes / monotonic-reads checkers fire into the ``missing``
metrics.  Three things need proving:

* **the sharing changes nothing** — the engine's record equals what
  the four standalone consumers and a plain ``evaluate_metrics``
  produce, live window events included, and the windows equal an
  eager, unshared transcription of §IV kept here as the reference;
* **the work follows view changes** — exact counts of predicate and
  checker evaluations, independent of how often a view is re-read;
* **the shared state is counted once and dropped whole**.
"""

import pytest
from hypothesis import given, settings

import repro.stream.engine as engine_module
from repro.core.anomalies import (
    ContentDivergenceChecker,
    MonotonicReadsChecker,
    OrderDivergenceChecker,
    ReadYourWritesChecker,
    views_content_diverged,
    views_order_diverged,
)
from repro.core.stream import TestMeta, stream_order
from repro.core.windows import (
    WindowResult,
    WindowTracker,
    content_divergence_windows,
    divergence_windows,
    order_divergence_windows,
)
from repro.methodology.runner import analyze_trace
from repro.relations import metric_names, resolve_metrics
from repro.relations.batch import evaluate_metrics
from repro.stream import StreamEngine
from tests.helpers import make_trace, read, write
from tests.test_checker_oracle import gridded_traces, skewed_traces
from tests.test_stream_parity import random_trace

ALL_METRICS = resolve_metrics(metric_names())


def engine_run(trace, metrics=()):
    """(record, per-op emissions) of one engine pass."""
    engine = StreamEngine(horizon=1, metrics=metrics)
    meta = TestMeta.from_trace(trace)
    engine.open_test(meta)
    live = [engine.observe(meta, sop)
            for sop in stream_order(trace, meta)]
    return engine.close_test(meta), live


def sorted_pairs(trace):
    return [tuple(sorted(pair)) for pair in trace.agent_pairs()]


# -- Reference: §IV windows, eagerly, one pair and predicate at a time ----


def reference_windows(trace, agent_a, agent_b, predicate):
    """Apply every read of an instant, then evaluate: no laziness, no
    sharing, no memo — the step functions of §IV read off directly."""
    meta = TestMeta.from_trace(trace)
    left, right = pair = tuple(sorted((agent_a, agent_b)))
    reads = [sop for sop in stream_order(trace, meta)
             if sop.is_read and sop.op.agent in pair]
    views = {left: (), right: ()}
    intervals, start = [], None
    for index, sop in enumerate(reads):
        views[sop.op.agent] = sop.op.observed
        if index + 1 < len(reads) and reads[index + 1].time == sop.time:
            continue  # the instant is not complete yet
        diverged = bool(predicate(views[left], views[right]))
        if diverged and start is None:
            start = sop.time
        elif not diverged and start is not None:
            intervals.append((start, sop.time))
            start = None
    if start is not None:
        intervals.append((start, reads[-1].time))
    return WindowResult(pair=pair, intervals=tuple(intervals),
                        converged=start is None)


def assert_sharing_changes_nothing(trace):
    record, live = engine_run(trace, ALL_METRICS)
    pairs = sorted_pairs(trace)

    # Both observation lists: the standalone checkers'.
    observations = record.report.observations
    assert observations["content_divergence"] == \
        ContentDivergenceChecker().check(trace)
    assert observations["order_divergence"] == \
        OrderDivergenceChecker().check(trace)

    # Both window dicts: the per-pair functions', and the reference's.
    for windows, per_pair, predicate in (
        (record.content_windows, content_divergence_windows,
         views_content_diverged),
        (record.order_windows, order_divergence_windows,
         views_order_diverged),
    ):
        assert list(windows) == pairs
        for pair in pairs:
            assert windows[pair] == per_pair(trace, *pair)
            assert windows[pair] == reference_windows(
                trace, *pair, predicate)

    # Live window events, op by op: one consumer at a time.
    trackers = [WindowTracker("content", views_content_diverged),
                WindowTracker("order", views_order_diverged)]
    meta = TestMeta.from_trace(trace)
    for tracker in trackers:
        tracker.open_test(meta)
    for sop, emission in zip(stream_order(trace, meta), live,
                             strict=True):
        alone = [event for tracker in trackers
                 for event in tracker.observe(meta, sop)]
        assert list(emission.window_events) == alone
    closed = [tracker.close_test(meta)[0] for tracker in trackers]
    assert closed == [record.content_windows, record.order_windows]

    # Metrics with the engine's checkers folded: the plain evaluator's.
    assert record.metrics == evaluate_metrics(trace, ALL_METRICS)


class TestSharingChangesNothing:
    @settings(max_examples=150, deadline=None)
    @given(trace=skewed_traces())
    def test_skewed_arbitrary_traces(self, trace):
        assert_sharing_changes_nothing(trace)

    @settings(max_examples=150, deadline=None)
    @given(trace=gridded_traces())
    def test_heavily_tied_polling_traces(self, trace):
        assert_sharing_changes_nothing(trace)

    @pytest.mark.parametrize("seed", range(30))
    def test_adversarial_random_traces(self, seed):
        assert_sharing_changes_nothing(random_trace(seed))

    @settings(max_examples=100, deadline=None)
    @given(trace=gridded_traces())
    def test_asymmetric_predicate_keeps_its_sides(self, trace):
        """Left is the lexicographically smaller agent whichever side
        reads: a predicate that is not symmetric tells them apart."""
        def longer(left_view, right_view):
            return len(left_view) > len(right_view)

        for pair in sorted_pairs(trace):
            assert divergence_windows(trace, *pair, longer) == \
                reference_windows(trace, *pair, longer)

    def test_unconverged_window_ends_at_the_last_repeated_read(self):
        """Re-reading an unchanged view still moves the pair's last
        observation — where an unconverged window is closed."""
        trace = make_trace([
            write("oregon", "m1", 0.0), write("tokyo", "m2", 0.0),
            read("oregon", ("m1",), 1.0), read("tokyo", ("m2",), 2.0),
            read("oregon", ("m1",), 3.0), read("tokyo", ("m2",), 4.0),
            read("ireland", (), 9.0),
        ])
        window = analyze_trace(trace).content_windows[
            ("oregon", "tokyo")]
        assert window.intervals == ((2.1, 4.1),)
        assert not window.converged

    def test_fold_keeps_stream_order_across_agents(self):
        """Samples of a ``missing`` metric interleave agents as the
        stream does (a checker's own close order is agent-major)."""
        trace = make_trace([
            write("oregon", "m1", 0.0), write("tokyo", "m2", 0.0),
            read("tokyo", ("m1", "m2"), 0.5),
            read("oregon", ("m1", "m2"), 0.7),
            read("tokyo", (), 1.0), read("oregon", (), 2.0),
            read("tokyo", (), 3.0), read("oregon", (), 4.0),
        ])
        specs = resolve_metrics(("session_monotonicity_depth",))
        (result,) = analyze_trace(trace, metrics=specs).metrics
        assert [sample.agent for sample in result.samples] == \
            ["tokyo", "oregon", "tokyo", "oregon"]
        assert (result,) == evaluate_metrics(trace, specs)


# -- Work counters ---------------------------------------------------------


def count_engine_predicates(monkeypatch) -> list:
    """Wrap the engine's two predicates; the returned list grows by one
    ``(kind, left view, right view)`` per evaluation."""
    calls = []

    def counting(kind):
        def diverged(left_view, right_view):
            calls.append((kind.kind, left_view, right_view))
            return kind.diverged(left_view, right_view)
        return kind._replace(diverged=diverged)

    for name in ("CONTENT", "ORDER"):
        monkeypatch.setattr(
            engine_module, name, counting(getattr(engine_module, name)))
    return calls


@pytest.fixture
def predicate_calls(monkeypatch):
    return count_engine_predicates(monkeypatch)


def polling_trace(repeats):
    """Three agents each re-reading its own (divergent) view."""
    ops = [write("oregon", "m1", 0.0), write("tokyo", "m2", 0.0)]
    for index in range(repeats):
        at = 1.0 + index
        ops += [read("oregon", ("m1",), at),
                read("tokyo", ("m2",), at + 0.2),
                read("ireland", ("m2", "m1"), at + 0.4)]
    return make_trace(ops)


class TestWorkFollowsViewChanges:
    def test_repeated_reads_cost_no_predicate_evaluations(
            self, predicate_calls):
        engine_run(polling_trace(2))
        few = len(predicate_calls)
        del predicate_calls[:]
        record, _ = engine_run(polling_trace(40))
        assert len(predicate_calls) == few
        # ... while every read pair is still counted.
        (obs,) = [obs for obs in
                  record.report.observations["content_divergence"]
                  if obs.pair == ("oregon", "tokyo")]
        assert obs.details["divergent_read_pairs"] == 40 * 40

    @pytest.mark.parametrize("seed", range(30))
    def test_one_evaluation_per_kind_and_distinct_view_pair(
            self, predicate_calls, seed):
        trace = random_trace(seed)
        engine_run(trace, ALL_METRICS)
        assert len(predicate_calls) == len(set(predicate_calls))
        views = {op.observed for op in trace.reads()} | {()}
        assert len(predicate_calls) <= 2 * len(views) ** 2

    @pytest.mark.parametrize("checker", [ReadYourWritesChecker,
                                         MonotonicReadsChecker])
    def test_session_predicates_run_once_per_op(self, monkeypatch,
                                                checker):
        entered = []
        observe = checker.observe

        def counted(self, meta, sop):
            entered.append(sop.seq)
            return observe(self, meta, sop)

        monkeypatch.setattr(checker, "observe", counted)
        for seed in range(5):
            trace = random_trace(seed)
            del entered[:]
            engine_run(trace, ALL_METRICS)
            assert len(entered) == len(trace.operations)


# -- State -----------------------------------------------------------------


class TestSharedStateIsCountedOnceAndDropped:
    def test_view_table_is_counted_once_whatever_the_read_count(self):
        sizes = []
        for repeats in (3, 30):
            trace = polling_trace(repeats)
            engine = StreamEngine(horizon=1)
            meta = TestMeta.from_trace(trace)
            engine.open_test(meta)
            for sop in stream_order(trace, meta):
                engine.observe(meta, sop)
            sizes.append(engine.divergence.state_size())
            engine.close_test(meta)
        # 4 interned views (the empty start view and one per agent),
        # 3 agents with one distinct view each (1 + 1 atoms), 3 pairs
        # (1 atom, no closed interval), and per kind and pair two
        # memoized verdicts: one side still on the start view, then
        # the view pair every later read repeats.
        assert sizes == [4 + 3 * 2 + 3 + 2 * 3 * 2] * 2

    @pytest.mark.parametrize("seed", range(5))
    def test_state_returns_to_the_retained_record(self, seed):
        engine = StreamEngine(horizon=1, metrics=ALL_METRICS)
        # Two tests open at once, views in common: nothing of the
        # first may outlive its close.
        traces = [random_trace(seed), random_trace(seed)]
        traces[1].test_id = "second"
        metas = [TestMeta.from_trace(trace) for trace in traces]
        for meta in metas:
            engine.open_test(meta)
        for trace, meta in zip(traces, metas):
            for sop in stream_order(trace, meta):
                engine.observe(meta, sop)
        alone = StreamEngine(horizon=1, metrics=ALL_METRICS)
        alone.open_test(metas[1])
        for sop in stream_order(traces[1], metas[1]):
            alone.observe(metas[1], sop)
        engine.close_test(metas[0])
        record = engine.results[-1]
        retained = 1 + sum(
            map(len, record.report.observations.values())
        ) + sum(len(result.samples) for result in record.metrics)
        assert engine.state_size() == retained + alone.state_size()
        engine.close_test(metas[1])
        assert engine.divergence.state_size() == 0
        assert engine.open_tests == 0


# -- The canonical-order fact the engine's duration rests on ----------------


@pytest.mark.parametrize("seed", range(30))
def test_stream_times_never_decrease_within_a_test(seed):
    """``StreamEngine`` takes a test's span as first op to latest op
    instead of comparing every op against a running min and max."""
    trace = random_trace(seed)
    times = [sop.time for sop in stream_order(trace)]
    assert times == sorted(times)
    assert analyze_trace(trace).duration == max(times) - min(times)
