"""Unit tests for the relation layer: specs, relations, evaluation.

These tests exercise :mod:`repro.relations` on hand-built traces whose
visibility and arbitration relations can be worked out on paper, so
each metric's semantics is pinned by a human-checkable example — and
by two references, kept here because there is one evaluation of each
in ``src/``:

* the ``missing``-class metric against the order-free §III
  transcription of ``tests/test_checker_oracle.py``;
* the two arbitration metrics against a brute force over every
  admissible arbitration (``itertools.permutations`` of at most six
  writes, filtered by session order and real time), valued with the
  plain frontier and pair scans.
"""

import itertools
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.cli import main
from repro.io import TraceEventWriter, record_from_dict, record_to_dict
from repro.methodology import CampaignConfig, run_campaign
from repro.methodology.runner import analyze_trace
from repro.relations import (
    BUILTIN_SPECS,
    Arbitration,
    LoggedWrite,
    MetricResult,
    MetricSample,
    MetricSpec,
    ReadContext,
    aggregate,
    anomaly_kinds,
    evaluate_metrics,
    evaluate_read,
    metric_names,
    minimal_arbitration,
    resolve_metrics,
    session_anomaly_kinds,
)
from repro.relations.spec import MAX_ARBITRATION_SETS
from tests.helpers import make_trace, read, write
from tests.test_checker_oracle import (
    gridded_traces,
    oracle_mr,
    skewed_traces,
)
from tests.test_stream_parity import random_trace

SERVICES = ("blogger", "googleplus", "facebook_feed", "facebook_group")
GRADED = ("relaxed_consistency", "stale_read_inversions")


class TestMetricSpec:
    def test_builtin_specs_are_valid_and_named(self):
        assert metric_names() == (
            "relaxed_consistency", "stale_read_inversions",
            "session_monotonicity_depth")
        for name, spec in BUILTIN_SPECS.items():
            assert spec.name == name
            assert spec.description

    def test_rejects_unknown_violation(self):
        with pytest.raises(ConfigurationError):
            MetricSpec(name="x", violation="bogus", measure="sum")

    def test_rejects_unknown_measure(self):
        with pytest.raises(ConfigurationError):
            MetricSpec(name="x", violation="missing", measure="count")

    def test_needs_arbitration(self):
        assert BUILTIN_SPECS["relaxed_consistency"].needs_arbitration
        assert BUILTIN_SPECS["stale_read_inversions"].needs_arbitration
        assert not BUILTIN_SPECS[
            "session_monotonicity_depth"].needs_arbitration


class TestRegistry:
    def test_metric_names_presentation_order(self):
        names = metric_names()
        assert set(names) == set(BUILTIN_SPECS)
        assert names == tuple(BUILTIN_SPECS)

    def test_resolve_preserves_request_order(self):
        specs = resolve_metrics(("session_monotonicity_depth",
                                 "relaxed_consistency"))
        assert [spec.name for spec in specs] == \
            ["session_monotonicity_depth", "relaxed_consistency"]

    def test_resolve_rejects_unknown_name(self):
        with pytest.raises(ConfigurationError,
                           match="unknown consistency metric"):
            resolve_metrics(("relaxed_consistency", "nope"))

    def test_resolve_rejects_duplicates(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            resolve_metrics(("relaxed_consistency",
                             "relaxed_consistency"))

    def test_anomaly_kind_views(self):
        assert set(session_anomaly_kinds()) < set(anomaly_kinds())


class TestArbitration:
    """The minimal admissible arbitration, on histories small enough
    to order by hand."""

    @staticmethod
    def order(writes, views=(), violation="inversion"):
        views = Counter(tuple(view) for view in views)
        return minimal_arbitration(writes, views, violation).order

    def test_ties_break_toward_invoke_then_seq(self):
        writes = [LoggedWrite(2.0, 5, "c", "oregon", 9.0),
                  LoggedWrite(1.0, 1, "a", "tokyo", 9.0),
                  LoggedWrite(1.0, 3, "b", "ireland", 9.0)]
        arb = minimal_arbitration(writes, {}, "inversion")
        assert arb.order == ("a", "b", "c")
        assert arb.rank == {"a": 0, "b": 1, "c": 2}

    def test_overlapping_writes_take_the_order_reads_show(self):
        # m1 and m2 overlap, so either order is admissible; the one
        # the read shows costs nothing.
        writes = [LoggedWrite(0.0, 0, "m1", "oregon", 2.0),
                  LoggedWrite(1.0, 1, "m2", "tokyo", 3.0)]
        assert self.order(writes, [("m2", "m1")]) == ("m2", "m1")
        assert self.order(writes, [("m2",)], "relaxation") == \
            ("m2", "m1")

    def test_real_time_is_kept(self):
        # m1 responded before m2 was invoked: m1 first, whatever the
        # reads show.
        writes = [LoggedWrite(0.0, 0, "m1", "oregon", 1.0),
                  LoggedWrite(2.0, 1, "m2", "tokyo", 3.0)]
        assert self.order(writes, [("m2", "m1")]) == ("m1", "m2")

    def test_session_order_is_kept(self):
        # One agent's overlapping writes keep their issue order.
        writes = [LoggedWrite(0.0, 0, "m1", "oregon", 5.0),
                  LoggedWrite(1.0, 1, "m2", "oregon", 6.0)]
        assert self.order(writes, [("m2", "m1")]) == ("m1", "m2")

    def test_relaxation_spares_the_reads_after_the_worst(self):
        # m3 follows m0 in its session, so the read of m3 alone skips
        # m0 whatever the order: k = 1.  Placing m2 before m1 then
        # spares the second read, which (invoke, seq) order would not.
        writes = [LoggedWrite(0.0, 0, "m0", "oregon", 9.0),
                  LoggedWrite(0.0, 1, "m1", "tokyo", 9.0),
                  LoggedWrite(0.0, 2, "m2", "ireland", 9.0),
                  LoggedWrite(0.0, 3, "m3", "oregon", 9.0)]
        views = [("m3",), ("m2", "m3", "m0")]
        assert self.order(writes, views, "relaxation") == \
            ("m0", "m3", "m2", "m1")

    def test_inversions_weigh_reads_not_views(self):
        # Two reads show m2 before m1 and one shows m1 before m2: the
        # minimum follows the majority of reads.
        writes = [LoggedWrite(0.0, 0, "m1", "oregon", 2.0),
                  LoggedWrite(1.0, 1, "m2", "tokyo", 3.0)]
        views = [("m2", "m1"), ("m2", "m1"), ("m1", "m2")]
        assert self.order(writes, views) == ("m2", "m1")


class TestEvaluateRead:
    def test_missing_seen_before_max_depth(self):
        trace = make_trace([
            read("oregon", ["m1", "m2", "m4"], at=2.0),
            read("oregon", ["m2"], at=3.0),
        ])
        (result,) = evaluate_metrics(
            trace, (BUILTIN_SPECS["session_monotonicity_depth"],))
        (sample,) = result.samples
        assert result.value == sample.value == 2
        assert sample.details["missing"] == ("m1", "m4")

    def test_relaxation_counts_skips_below_frontier(self):
        # Arbitration m1 < m2 < m3 < m4; the read sees only m3, so
        # the frontier is m3 and {m1, m2} are skipped: k = 2.
        arb = Arbitration(("m1", "m2", "m3", "m4"))
        ctx = ReadContext(agent="tokyo", time=5.0,
                          observed=frozenset({"m3"}))
        spec = BUILTIN_SPECS["relaxed_consistency"]
        value, details = evaluate_read(spec, ctx, arb)
        assert value == 2
        assert details["frontier"] == "m3"
        assert details["skipped"] == ("m1", "m2")

    def test_relaxation_zero_for_prefix_view(self):
        arb = Arbitration(("m1", "m2", "m3"))
        ctx = ReadContext(agent="tokyo", time=5.0,
                          observed=frozenset({"m1", "m2"}))
        spec = BUILTIN_SPECS["relaxed_consistency"]
        value, _ = evaluate_read(spec, ctx, arb)
        assert value == 0

    def test_inversion_counts_out_of_order_pairs(self):
        # View order follows the read's observed tuple order via the
        # arbitration ranks: seeing {m3, m1} only inverts one pair.
        arb = Arbitration(("m1", "m2", "m3"))
        spec = BUILTIN_SPECS["stale_read_inversions"]
        value, details = evaluate_read(
            spec,
            ReadContext(agent="tokyo", time=5.0,
                        observed=("m3", "m1")),
            arb,
        )
        assert value == 1
        assert details["inverted"] == (("m3", "m1"),)

    def test_unlogged_observed_ids_are_ignored(self):
        arb = Arbitration(("m1",))
        spec = BUILTIN_SPECS["stale_read_inversions"]
        value, _ = evaluate_read(
            spec,
            ReadContext(agent="tokyo", time=5.0,
                        observed=("ghost", "m1")),
            arb,
        )
        assert value == 0


def unshortened_scan(spec, ctx, arbitration):
    """``evaluate_read`` without its O(k) shortcuts: the full frontier
    scan and the full pair scan, whatever the view looks like."""
    ranked = [m for m in ctx.observed if m in arbitration.rank]
    if spec.violation == "relaxation":
        if not ranked:
            return 0, {}
        frontier = max(arbitration.rank[m] for m in ranked)
        visible = set(ctx.observed)
        skipped = tuple(m for m in arbitration.order[:frontier]
                        if m not in visible)
        if not skipped:
            return 0, {}
        return len(skipped), {
            "frontier": arbitration.order[frontier],
            "skipped": skipped,
        }
    inverted = tuple(
        (earlier, later)
        for i, earlier in enumerate(ranked)
        for later in ranked[i + 1:]
        if arbitration.rank[earlier] > arbitration.rank[later]
    )
    if not inverted:
        return 0, {}
    return len(inverted), {"inverted": inverted}


class TestEvaluateReadShortcuts:
    """In-order views skip the pair scan and rank-prefix views the
    frontier scan; neither may change a value or its details."""

    IDS = [f"m{index}" for index in range(7)]

    @settings(max_examples=400, deadline=None)
    @given(
        logged=st.permutations(IDS).flatmap(
            lambda ids: st.integers(0, len(ids)).map(
                lambda cut: ids[:cut])),
        # Mostly in-order prefixes (what services return), plus
        # arbitrary samples with unlogged ids and repeats.
        observed=st.one_of(
            st.integers(0, 7),
            st.lists(st.sampled_from(IDS + ["ghost"]), max_size=9),
        ),
        violation=st.sampled_from(("relaxation", "inversion")),
    )
    def test_shortcuts_equal_the_unshortened_scan(
            self, logged, observed, violation):
        arb = Arbitration(tuple(logged))
        if isinstance(observed, int):
            observed = list(arb.order[:observed])
        spec = MetricSpec(name="x", violation=violation, measure="sum")
        ctx = ReadContext("tokyo", 5.0, tuple(observed))
        assert evaluate_read(spec, ctx, arb) == \
            unshortened_scan(spec, ctx, arb)


# -- The brute-force reference ---------------------------------------------


def admissible_orders(trace):
    """Every arbitration of the trace's writes that keeps each agent's
    issue order and real time, by enumerating all orders.

    ``w`` must precede ``w'`` when the same agent issued it first
    (earlier local invocation, then recording index) or when ``w``
    responded before ``w'`` was invoked, both instants corrected by
    the trace's clock deltas.
    """
    writes = [(index, op) for index, op in enumerate(trace.operations)
              if op.is_write]

    def must_precede(first, second):
        (i, w), (j, v) = first, second
        if w.agent == v.agent and \
                (w.invoke_local, i) < (v.invoke_local, j):
            return True
        return trace.corrected_response(w) < trace.corrected_invoke(v)

    for order in itertools.permutations(writes):
        if not any(must_precede(later, earlier)
                   for k, earlier in enumerate(order)
                   for later in order[k + 1:]):
            yield Arbitration(tuple(w.message_id for _, w in order))


def invocation_order(trace):
    """The fixed order the metrics once used: by corrected invocation,
    then recording index."""
    keyed = sorted((trace.corrected_invoke(op), index, op.message_id)
                   for index, op in enumerate(trace.operations)
                   if op.is_write)
    return Arbitration(tuple(mid for _, _, mid in keyed))


def scanned(spec, trace, arbitration):
    """Every nonzero read under one arbitration, by the plain scans:
    ``(agent, corrected response, value, details)``."""
    out = Counter()
    for r in trace.reads():
        value, details = unshortened_scan(
            spec, ReadContext(r.agent, 0.0, r.observed), arbitration)
        if value:
            out[r.agent, trace.corrected_response(r), value,
                tuple(sorted(details.items()))] += 1
    return out


def folded(spec, samples):
    values = [value for (_, _, value, _), reads in samples.items()
              for _ in range(reads)]
    if spec.measure == "max":
        return max(values, default=0)
    return sum(values)


def assert_minimal_over_admissible(trace):
    """Both graded metrics equal their brute-force minimum, read by
    read, and never exceed the invocation-order value; when that
    order's inversion count is the minimum, the samples are its."""
    assert len(trace.writes()) <= 6
    orders = list(admissible_orders(trace))
    assert orders
    results = evaluate_metrics(trace, resolve_metrics(GRADED))
    for spec, result in zip(resolve_metrics(GRADED), results):
        by_order = [scanned(spec, trace, arb) for arb in orders]
        least = min(folded(spec, reads) for reads in by_order)
        assert result.value == least, spec.name
        samples = Counter(
            (s.agent, s.time, s.value, tuple(sorted(s.details.items())))
            for s in result.samples)
        assert samples in by_order, spec.name
        fixed = scanned(spec, trace, invocation_order(trace))
        assert result.value <= folded(spec, fixed)
        if spec.violation == "inversion" and \
                result.value == folded(spec, fixed):
            assert samples == fixed


def kept_traces(service, **config):
    result = run_campaign(service, CampaignConfig(
        keep_traces=True, **config))
    return [record.trace for record in result.records]


class TestGradedMetricsAreAdmissibleMinima:
    @settings(max_examples=120, deadline=None)
    @given(trace=skewed_traces())
    def test_skewed_arbitrary_traces(self, trace):
        assert_minimal_over_admissible(trace)

    @settings(max_examples=120, deadline=None)
    @given(trace=gridded_traces())
    def test_heavily_tied_traces(self, trace):
        assume(len(trace.writes()) <= 6)
        assert_minimal_over_admissible(trace)

    @pytest.mark.parametrize("service", SERVICES)
    def test_substrate_traces(self, service):
        for trace in kept_traces(service, num_tests=3, seed=11):
            assert_minimal_over_admissible(trace)

    def test_blogger_test2_traces(self):
        for trace in kept_traces("blogger", num_tests=10, seed=11,
                                 test_types=("test2",)):
            assert_minimal_over_admissible(trace)


class TestBloggerReadsZero:
    """Blogger is synchronous primary-backup: some admissible order
    explains every read, so both graded metrics read 0 on every test."""

    @pytest.mark.parametrize("seed", [11, 301, 302, 303, 304])
    def test_every_record_is_zero(self, seed):
        result = run_campaign("blogger", CampaignConfig(
            num_tests=10, seed=seed, metrics=GRADED))
        assert {(m.metric, m.value) for record in result.records
                for m in record.metrics} == {(name, 0) for name in GRADED}


def overlapping_trace(tmp_path, agents, writes):
    """Each agent's ``writes`` writes, all overlapping every other
    write, then one read per agent showing them all in reverse; the
    trace and its operation-stream file."""
    operations = [write(agent, f"{agent}{k}", at=0.1 * k, response=10.0)
                  for agent in agents for k in range(writes)]
    ids = [op.message_id for op in operations]
    operations += [read(agent, ids[::-1], at=11.0 + k)
                   for k, agent in enumerate(agents)]
    trace = make_trace(operations, agents=agents, test_id="wide")
    path = tmp_path / "wide.ops.jsonl"
    with path.open("w", encoding="utf-8") as sink:
        writer = TraceEventWriter(sink)
        writer.test_opened(trace)
        for op in trace.operations:
            writer.operation(trace, op)
        writer.test_closed(trace)
    return trace, path


def test_stream_from_trace_orders_many_overlapping_writes(
        tmp_path, capsys):
    """Three sessions of eight writes that all overlap have
    24! / (8!)^3 admissible orders; the search walks at most 9^3 sets
    of placed writes, so the outside trace replays at once."""
    trace, path = overlapping_trace(
        tmp_path, ("oregon", "tokyo", "ireland"), 8)
    assert main(["stream", "--from-trace", str(path), "--quiet",
                 "--metrics", ",".join(GRADED)]) == 0
    capsys.readouterr()
    relaxed, inversions = evaluate_metrics(trace, resolve_metrics(GRADED))
    # Each session's writes keep their issue order, which every read
    # reverses: 3 x C(8, 2) pairs per read, whatever the sessions'
    # interleaving; the sessions' order can follow the reads.
    assert inversions.value == 3 * 3 * 28
    assert relaxed.value == 0


def test_stream_from_trace_refuses_an_unbounded_arbitration_search(
        tmp_path, capsys):
    """Seven sessions of six overlapping writes reach 7^7 sets; the
    search stops at MAX_ARBITRATION_SETS with one named error."""
    agents = tuple(f"site{k}" for k in range(7))
    _, path = overlapping_trace(tmp_path, agents, 6)
    started = time.perf_counter()
    assert main(["stream", "--from-trace", str(path), "--quiet",
                 "--metrics", ",".join(GRADED)]) == 2
    assert time.perf_counter() - started < 1.0
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (f"stream: {path}: test wide: 7 sessions of 42 "
                    f"writes reach over {MAX_ARBITRATION_SETS:,} "
                    "arbitration sets")


class TestAggregate:
    def test_sum_and_max(self):
        samples = (
            MetricSample(agent="a", time=1.0, value=2),
            MetricSample(agent="b", time=2.0, value=5),
        )
        sum_spec = BUILTIN_SPECS["stale_read_inversions"]
        max_spec = BUILTIN_SPECS["relaxed_consistency"]
        assert aggregate(sum_spec, samples) == 7
        assert aggregate(max_spec, samples) == 5

    def test_empty_samples_are_zero(self):
        for spec in BUILTIN_SPECS.values():
            assert aggregate(spec, ()) == 0


class TestEvaluateMetrics:
    def test_depth_spec_on_violating_trace(self):
        trace = make_trace([
            write("oregon", "m1", at=1.0),
            read("oregon", ["m1"], at=2.0),
            read("oregon", [], at=3.0),
        ])
        (result,) = evaluate_metrics(
            trace, resolve_metrics(("session_monotonicity_depth",)))
        assert result.metric == "session_monotonicity_depth"
        assert result.value == 1
        (sample,) = result.samples
        assert sample.agent == "oregon"
        assert sample.details["missing"] == ("m1",)

    def test_results_follow_spec_order_and_keep_zero_values(self):
        trace = make_trace([
            write("oregon", "m1", at=1.0),
            read("tokyo", ["m1"], at=2.0),
        ])
        results = evaluate_metrics(
            trace, resolve_metrics(("session_monotonicity_depth",
                                    "relaxed_consistency")))
        assert [r.metric for r in results] == \
            ["session_monotonicity_depth", "relaxed_consistency"]
        assert all(r.value == 0 and r.samples == () for r in results)

    def test_samples_only_for_violating_reads(self):
        trace = make_trace([
            write("oregon", "m1", at=1.0),
            read("ireland", ["m1"], at=2.0),
            read("ireland", [], at=3.0),
            read("ireland", ["m1"], at=4.0),
        ])
        (result,) = evaluate_metrics(
            trace, resolve_metrics(("session_monotonicity_depth",)))
        assert result.value == 1
        (sample,) = result.samples
        assert sample.time == read("ireland", [], at=3.0).response_local


def assert_missing_metrics_match_oracles(trace):
    """Value and every sample of the ``missing``-class metric.

    The oracle names each violating read as ``(agent, time, missing)``
    without ever sorting the trace; the sample's view must be that of
    a read the agent completed at that instant, its value the size of
    its ``missing`` set, and samples arrive in canonical read order —
    so reference times never step back.
    """
    (depth,) = evaluate_metrics(trace, resolve_metrics((
        "session_monotonicity_depth",)))
    views = Counter((r.agent, trace.corrected_response(r), r.observed)
                    for r in trace.reads())
    expected = oracle_mr(trace)
    samples = depth.samples
    assert Counter((s.agent, s.time, s.details["missing"])
                   for s in samples) == expected
    assert not Counter((s.agent, s.time, s.details["observed"])
                       for s in samples) - views
    for s in samples:
        assert s.value == len(s.details["missing"]) > 0
        assert not set(s.details["missing"]) & set(s.details["observed"])
    times = [s.time for s in samples]
    assert times == sorted(times)
    assert depth.value == max(
        (len(missing) for _, _, missing in expected), default=0)


class TestMissingMetricsMatchOracles:
    @settings(max_examples=200, deadline=None)
    @given(trace=skewed_traces())
    def test_skewed_arbitrary_traces(self, trace):
        assert_missing_metrics_match_oracles(trace)

    @pytest.mark.parametrize("seed", range(30))
    def test_adversarial_random_traces(self, seed):
        assert_missing_metrics_match_oracles(random_trace(seed))


class TestRecordCodec:
    def _record(self, metrics):
        trace = make_trace([
            write("oregon", "m1", at=1.0),
            read("oregon", ["m1"], at=2.0),
            read("oregon", [], at=3.0),
        ])
        return analyze_trace(trace, metrics=metrics)

    def test_metrics_round_trip(self):
        record = self._record(resolve_metrics(metric_names()))
        data = record_to_dict(record)
        restored = record_from_dict(data, "unit")
        assert restored.metrics == record.metrics
        depth = restored.metrics[-1]
        assert isinstance(depth, MetricResult)
        assert isinstance(depth.samples[0], MetricSample)

    def test_metrics_key_absent_when_unused(self):
        # Records from metric-less campaigns must serialize to the
        # exact bytes they did before the relation layer existed, or
        # every golden fleet signature would shift.
        record = self._record(())
        assert "metrics" not in record_to_dict(record)
