"""Unit tests for the relation layer: specs, relations, evaluation.

These tests exercise :mod:`repro.relations` on hand-built traces whose
visibility and arbitration relations can be worked out on paper, so
each metric's semantics is pinned by a human-checkable example — and,
for the three ``missing``-class metrics, by the order-free §III
transcriptions of ``tests/test_checker_oracle.py``: there is one
evaluation of those predicates in ``src/``, so the reference lives
here.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.io import record_from_dict, record_to_dict
from repro.methodology.runner import analyze_trace
from repro.relations import (
    BUILTIN_SPECS,
    Arbitration,
    MetricResult,
    MetricSample,
    MetricSpec,
    ReadContext,
    aggregate,
    anomaly_kinds,
    evaluate_metrics,
    evaluate_read,
    metric_names,
    resolve_metrics,
    session_anomaly_kinds,
)
from tests.helpers import make_trace, read, write
from tests.test_checker_oracle import oracle_mr, oracle_ryw, skewed_traces
from tests.test_stream_parity import random_trace


class TestMetricSpec:
    def test_builtin_specs_are_valid_and_named(self):
        assert len(BUILTIN_SPECS) >= 5
        for name, spec in BUILTIN_SPECS.items():
            assert spec.name == name
            assert spec.description

    def test_rejects_unknown_expect(self):
        with pytest.raises(ConfigurationError):
            MetricSpec(name="x", expect="bogus", violation="missing",
                       measure="count")

    def test_rejects_unknown_violation(self):
        with pytest.raises(ConfigurationError):
            MetricSpec(name="x", expect="visible", violation="bogus",
                       measure="count")

    def test_rejects_unknown_measure(self):
        with pytest.raises(ConfigurationError):
            MetricSpec(name="x", expect="visible", violation="missing",
                       measure="bogus")

    def test_arbitration_violations_require_visible_expectation(self):
        with pytest.raises(ConfigurationError):
            MetricSpec(name="x", expect="own_completed",
                       violation="relaxation", measure="max")
        with pytest.raises(ConfigurationError):
            MetricSpec(name="x", expect="seen_before",
                       violation="inversion", measure="sum")

    def test_needs_arbitration(self):
        assert BUILTIN_SPECS["relaxed_consistency"].needs_arbitration
        assert BUILTIN_SPECS["stale_read_inversions"].needs_arbitration
        assert not BUILTIN_SPECS["read_your_writes"].needs_arbitration
        assert not BUILTIN_SPECS[
            "session_monotonicity_depth"].needs_arbitration


class TestRegistry:
    def test_metric_names_presentation_order(self):
        names = metric_names()
        assert set(names) == set(BUILTIN_SPECS)
        assert names == tuple(BUILTIN_SPECS)

    def test_resolve_preserves_request_order(self):
        specs = resolve_metrics(("monotonic_reads",
                                 "relaxed_consistency"))
        assert [spec.name for spec in specs] == \
            ["monotonic_reads", "relaxed_consistency"]

    def test_resolve_rejects_unknown_name(self):
        with pytest.raises(ConfigurationError,
                           match="unknown consistency metric"):
            resolve_metrics(("monotonic_reads", "nope"))

    def test_resolve_rejects_duplicates(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            resolve_metrics(("monotonic_reads", "monotonic_reads"))

    def test_anomaly_kind_views(self):
        assert set(session_anomaly_kinds()) < set(anomaly_kinds())


class TestArbitration:
    def test_from_keyed_orders_by_corrected_invoke_then_seq(self):
        arb = Arbitration.from_keyed([
            (2.0, 5, "c"), (1.0, 1, "a"), (1.0, 3, "b"),
        ])
        assert arb.order == ("a", "b", "c")
        assert arb.rank == {"a": 0, "b": 1, "c": 2}


class TestEvaluateRead:
    def test_missing_own_completed_counts_and_orders(self):
        trace = make_trace([
            write("oregon", "m1", at=0.0), write("oregon", "m2", at=0.5),
            write("oregon", "m3", at=1.0), read("oregon", ["m2"], at=3.0),
        ])
        (result,) = evaluate_metrics(
            trace, (BUILTIN_SPECS["read_your_writes"],))
        (sample,) = result.samples
        assert sample.value == 2
        assert sample.details["missing"] == ("m1", "m3")

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
        arb = Arbitration.from_keyed([
            (1.0, 0, "m1"), (2.0, 1, "m2"),
            (3.0, 2, "m3"), (4.0, 3, "m4"),
        ])
        ctx = ReadContext(agent="tokyo", time=5.0,
                          observed=frozenset({"m3"}))
        spec = BUILTIN_SPECS["relaxed_consistency"]
        value, details = evaluate_read(spec, ctx, arb)
        assert value == 2
        assert details["frontier"] == "m3"
        assert details["skipped"] == ("m1", "m2")

    def test_relaxation_zero_for_prefix_view(self):
        arb = Arbitration.from_keyed([
            (1.0, 0, "m1"), (2.0, 1, "m2"), (3.0, 2, "m3"),
        ])
        ctx = ReadContext(agent="tokyo", time=5.0,
                          observed=frozenset({"m1", "m2"}))
        spec = BUILTIN_SPECS["relaxed_consistency"]
        value, _ = evaluate_read(spec, ctx, arb)
        assert value == 0

    def test_inversion_counts_out_of_order_pairs(self):
        # View order follows the read's observed tuple order via the
        # arbitration ranks: seeing {m3, m1} only inverts one pair.
        arb = Arbitration.from_keyed([
            (1.0, 0, "m1"), (2.0, 1, "m2"), (3.0, 2, "m3"),
        ])
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
        arb = Arbitration.from_keyed([(1.0, 0, "m1")])
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
        arb = Arbitration.from_keyed(
            [(float(at), at, mid) for at, mid in enumerate(logged)])
        if isinstance(observed, int):
            observed = list(arb.order[:observed])
        spec = MetricSpec(name="x", expect="visible",
                          violation=violation, measure="sum")
        ctx = ReadContext("tokyo", 5.0, tuple(observed))
        assert evaluate_read(spec, ctx, arb) == \
            unshortened_scan(spec, ctx, arb)


class TestAggregate:
    def test_count_sum_max(self):
        samples = (
            MetricSample(agent="a", time=1.0, value=2),
            MetricSample(agent="b", time=2.0, value=5),
        )
        count_spec = BUILTIN_SPECS["read_your_writes"]
        sum_spec = BUILTIN_SPECS["stale_read_inversions"]
        max_spec = BUILTIN_SPECS["relaxed_consistency"]
        assert aggregate(count_spec, samples) == 2
        assert aggregate(sum_spec, samples) == 7
        assert aggregate(max_spec, samples) == 5

    def test_empty_samples_are_zero(self):
        for spec in BUILTIN_SPECS.values():
            assert aggregate(spec, ()) == 0


class TestEvaluateMetrics:
    def test_read_your_writes_spec_on_violating_trace(self):
        trace = make_trace([
            write("oregon", "m1", at=1.0),
            read("oregon", [], at=2.0),
            read("oregon", ["m1"], at=3.0),
        ])
        (result,) = evaluate_metrics(
            trace, resolve_metrics(("read_your_writes",)))
        assert result.metric == "read_your_writes"
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
            trace, resolve_metrics(("monotonic_reads",
                                    "relaxed_consistency")))
        assert [r.metric for r in results] == \
            ["monotonic_reads", "relaxed_consistency"]
        assert all(r.value == 0 and r.samples == () for r in results)

    def test_samples_only_for_violating_reads(self):
        trace = make_trace([
            write("oregon", "m1", at=1.0),
            read("ireland", ["m1"], at=2.0),
            read("ireland", [], at=3.0),
            read("ireland", ["m1"], at=4.0),
        ])
        (result,) = evaluate_metrics(
            trace, resolve_metrics(("monotonic_reads",)))
        assert result.value == 1
        (sample,) = result.samples
        assert sample.time == read("ireland", [], at=3.0).response_local


def assert_missing_metrics_match_oracles(trace):
    """Value and every sample of the three ``missing``-class metrics.

    The oracles name each violating read as ``(agent, time, missing)``
    without ever sorting the trace; the sample's view must be that of
    a read the agent completed at that instant, its value the size of
    its ``missing`` set, and samples arrive in canonical read order —
    so reference times never step back.
    """
    ryw, mr, depth = evaluate_metrics(trace, resolve_metrics((
        "read_your_writes", "monotonic_reads",
        "session_monotonicity_depth")))
    views = Counter((r.agent, trace.corrected_response(r), r.observed)
                    for r in trace.reads())
    for result, oracle in ((ryw, oracle_ryw), (mr, oracle_mr),
                           (depth, oracle_mr)):
        expected = oracle(trace)
        samples = result.samples
        assert Counter((s.agent, s.time, s.details["missing"])
                       for s in samples) == expected
        assert not Counter((s.agent, s.time, s.details["observed"])
                           for s in samples) - views
        for s in samples:
            assert s.value == len(s.details["missing"]) > 0
            assert not set(s.details["missing"]) & set(
                s.details["observed"])
        times = [s.time for s in samples]
        assert times == sorted(times)
        assert result.value == (
            max((len(missing) for _, _, missing in expected), default=0)
            if result is depth else sum(expected.values()))


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
            read("oregon", [], at=2.0),
        ])
        return analyze_trace(trace, metrics=metrics)

    def test_metrics_round_trip(self):
        record = self._record(resolve_metrics(("read_your_writes",
                                               "monotonic_reads")))
        data = record_to_dict(record)
        restored = record_from_dict(data, "unit")
        assert restored.metrics == record.metrics
        assert isinstance(restored.metrics[0], MetricResult)
        assert isinstance(restored.metrics[0].samples[0], MetricSample)

    def test_metrics_key_absent_when_unused(self):
        # Records from metric-less campaigns must serialize to the
        # exact bytes they did before the relation layer existed, or
        # every golden fleet signature would shift.
        record = self._record(())
        assert "metrics" not in record_to_dict(record)
