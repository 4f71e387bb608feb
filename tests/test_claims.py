"""Tests for the paper's claims table (repro.calibrate.claims).

The table's contract: one row per claim id, every paper number a row
shows is read from ``PAPER_TARGETS`` rather than restated, a guarded
row reports "n/a" and holds exactly when its guard is false, and a
subset of services evaluates and renders only the rows it can read.
As a calibration objective, every number ``PAPER_TARGETS`` publishes
is fitted by exactly one weighted row, and the fit rows stay out of
the claims.  Whether the rows hold on the bench campaigns is
``benchmarks/test_paper_claims.py``'s job.
"""

import math
import re
from types import SimpleNamespace

import pytest

from repro._hash import sha256
from repro.calibrate import PAPER_TARGETS
from repro.calibrate.claims import (
    CLAIMS,
    FIT_ROWS,
    GRADED,
    Z95,
    Claim,
    Measured,
    across_seeds,
    claims_table,
    evaluate_claims,
    Verdict,
    _OPS,
    decision_size,
    held_at,
    seeds_table,
)
from repro.core import ALL_ANOMALIES
from repro.methodology import CampaignConfig, CampaignResult, run_campaign
from repro.relations.spec import MetricResult

SERVICES = tuple(PAPER_TARGETS)

_PAIR = r"(?P<pair>ireland_oregon|ireland_tokyo|oregon_tokyo)"
_ANOMALY = "|".join(ALL_ANOMALIES)

#: id pattern -> the PAPER_TARGETS number of the row's statistic.
TARGETED = (
    (rf"fig\d\.(?P<service>\w+)\.(?P<anomaly>{_ANOMALY})"
     r"(\.present|\.vs_\w+)?",
     lambda targets, row: targets.prevalence[row["anomaly"]]),
    (rf"fig8\.(?P<service>\w+)\.{_PAIR}(_vs_ireland)?",
     lambda targets, row: targets.pair_content[
         tuple(row["pair"].split("_"))]),
    (rf"fig9\.(?P<service>\w+)\.{_PAIR}(\.median|_vs_ireland)",
     lambda targets, row: targets.content_window_median[
         tuple(row["pair"].split("_"))]),
    (r"(table1|totals)\.(?P<service>\w+)\.reads(\.vs_\w+)?",
     lambda targets, row: targets.reads_test1),
)

#: sha256 of the newline-joined ids ``evaluate_claims`` returns for the
#: four services, recorded before the table gained weights and fit rows
#: and before the rows of :data:`ADDED` were added.
CLAIM_IDS_SHA256 = (
    "0490d4bb741d1fbe2ada2f40ee4b16280733dead100a8c5b52329d2d9b908795")
#: The graded-metric extension rows, each guarded on its metric.
GRADED_ROWS = ("graded.blogger.test1.relaxed_consistency",
               "graded.blogger.test1.stale_read_inversions",
               "graded.blogger.test2.relaxed_consistency",
               "graded.blogger.test2.stale_read_inversions",
               "graded.facebook_feed.test1.relaxed_consistency",
               "graded.facebook_feed.test2.stale_read_inversions",
               "graded.googleplus.test2.relaxed_consistency.over_1",
               "graded.facebook_group.test1.stale_read_inversions",
               "graded.facebook_group.test1.relaxed_consistency")
#: The Figs. 8, 9 and 10 cells that had no row at that point, and the
#: extension rows.
ADDED = ("fig8.facebook_group.oregon_tokyo.present",
         "fig8.facebook_group.ireland_tokyo.present",
         "fig9.facebook_group.tokyo_windows",
         "fig10.googleplus.oregon_tokyo.order",
         *GRADED_ROWS)
#: Recorded rows that became fit rows, no campaign of the paper's size
#: deciding them (``decision_size`` "never"), each with the recorded
#: row it preceded.
MOVED = (("fig3.facebook_group.read_your_writes",
          "fig3.facebook_group.order_divergence"),)

GUARDED = ("fig5.googleplus.monotonic_writes.local",
           "fig6.googleplus.monotonic_reads.local",
           "fig6.facebook_feed.monotonic_reads.local",
           "fig9.googleplus.oregon_tokyo_vs_ireland",
           *GRADED_ROWS)


def empty(service):
    return CampaignResult(service=service,
                          config=CampaignConfig(num_tests=1, seed=0))


def by_id(verdicts):
    return {verdict.claim.id: verdict for verdict in verdicts}


def test_ids_are_unique():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))


def test_paper_numbers_are_read_from_the_targets():
    matched = set()
    for claim in (*CLAIMS, *FIT_ROWS):
        for pattern, lookup in TARGETED:
            row = re.fullmatch(pattern, claim.id)
            if row:
                targets = PAPER_TARGETS[row["service"]]
                assert claim.paper is lookup(targets, row), claim.id
                matched.add(claim.id)
    fig3 = {claim.id for claim in (*CLAIMS, *FIT_ROWS)
            if claim.id.startswith("fig3.")}
    assert fig3 <= matched
    assert len(matched) >= 60


class _Measured:
    """Stands in for the measured results a location guard reads."""

    def __init__(self, tests_with_anomaly):
        self.tests_with_anomaly = tests_with_anomaly

    def anomalous(self, service, anomaly):
        return self.tests_with_anomaly


@pytest.mark.parametrize("claim_id", GUARDED[:3])
def test_location_guard_waits_for_three_anomalous_tests(claim_id):
    (claim,) = [claim for claim in CLAIMS if claim.id == claim_id]
    assert not claim.guard(_Measured(2))
    assert claim.guard(_Measured(3))


def test_guarded_row_reports_na_and_holds():
    verdicts = by_id(evaluate_claims(
        {service: empty(service) for service in SERVICES}))
    for claim_id in GUARDED:
        verdict = verdicts[claim_id]
        assert not verdict.applies and verdict.holds, claim_id
        assert claims_table([verdict]).endswith("n/a")
    # An unguarded row with nothing to measure fails instead.
    assert not verdicts["fig9.googleplus.ireland_oregon.median"].holds


def test_every_guard_in_the_table_is_listed():
    assert sorted(claim.id for claim in CLAIMS
                  if claim.guard is not None
                  and ".few_over_bursts" not in claim.id) \
        == sorted(GUARDED)


@pytest.mark.parametrize("service", SERVICES)
def test_one_service_evaluates_only_its_own_rows(service):
    verdicts = evaluate_claims({service: empty(service)})
    assert verdicts
    assert all(verdict.claim.services == (service,)
               for verdict in verdicts)
    table = claims_table(verdicts)
    assert table.splitlines()[0].endswith(f"of {len(verdicts)} claims hold")


def test_cross_service_rows_need_both_services():
    ids = set(by_id(evaluate_claims({"googleplus": empty("googleplus")})))
    assert "fig8.googleplus.oregon_tokyo_vs_ireland" in ids
    assert "fig3.facebook_feed.read_your_writes.vs_googleplus" not in ids
    assert "table1.googleplus.reads.vs_blogger" not in ids


def test_no_paper_service_evaluates_no_row():
    assert evaluate_claims({"quorum_kv": empty("quorum_kv")}) == []


def test_fit_rows_are_invisible_to_the_claims():
    ids = [verdict.claim.id for verdict in evaluate_claims(
        {service: empty(service) for service in SERVICES})]
    recorded = [row for row in ids if row not in ADDED]
    for row, before in MOVED:
        recorded.insert(recorded.index(before), row)
    assert len(recorded) == 151
    assert len(ids) == 151 - len(MOVED) + len(ADDED)
    assert sha256("\n".join(recorded).encode()).hexdigest() \
        == CLAIM_IDS_SHA256
    assert {row for row, _ in MOVED} <= {row.id for row in FIT_ROWS}
    assert not {row.id for row in FIT_ROWS} & set(ids)
    assert all(row.op is None and row.weight for row in FIT_ROWS)


class _Probe:
    """Stands in for measured results: a statistic returns the call it
    makes, so ``S("rate", s, pair, "order")`` gives
    ``("rate", s, pair, "order")``."""

    def __getattr__(self, method):
        return lambda *args: (method, *args)


def published(service):
    """(statistic call, paper number, weight) per PAPER_TARGETS number."""
    targets = PAPER_TARGETS[service]
    yield from ((("share", service, anomaly), number, 1.0)
                for anomaly, number in targets.prevalence.items())
    yield ("reads", service), targets.reads_test1, 1.0
    for kind, rates, medians in (
            ((), targets.pair_content, targets.content_window_median),
            (("order",), targets.pair_order, targets.order_window_median)):
        yield from ((("rate", service, pair, *kind), number, 1.0)
                    for pair, number in rates.items())
        yield from ((("median", service, pair, *kind), number, 0.1)
                    for pair, number in medians.items())


@pytest.mark.parametrize("service", SERVICES)
def test_every_published_number_is_one_weighted_row(service):
    rows = [row for row in (*CLAIMS, *FIT_ROWS)
            if row.weight and service in row.services]
    assert all(row.services == (service,) for row in rows)
    calls = [row.statistic(_Probe()) for row in rows]
    expected = list(published(service))
    # As many rows as numbers, and each number on its own row: a target
    # dropped or scored twice fails here.
    assert len(rows) == len(expected)
    for call, number, weight in expected:
        (row,) = [row for row, made in zip(rows, calls) if made == call]
        assert row.paper is number, row.id
        assert row.weight == weight, row.id


def test_graded_rows_apply_and_hold_on_campaigns_carrying_the_metrics():
    # 20 tests per template: above every graded row's n* (largest 10).
    verdicts = by_id(evaluate_claims({
        service: run_campaign(service, CampaignConfig(
            num_tests=20, seed=3, metrics=GRADED))
        for service in SERVICES}))
    for row in GRADED_ROWS:
        verdict = verdicts[row]
        assert verdict.applies and verdict.holds, claims_table([verdict])
        assert verdict.claim.source == "extension"
        assert verdict.claim.paper is None


def test_graded_counts_only_values_strictly_above():
    result = CampaignResult(service="googleplus", config=CampaignConfig(
        num_tests=1, seed=0, metrics=GRADED), records=[
        SimpleNamespace(test_type=test_type, metrics=(
            MetricResult("relaxed_consistency", value),
            MetricResult("stale_read_inversions", 5)))
        for test_type, value in (("test2", 0), ("test2", 1),
                                 ("test2", 2), ("test1", 7))])
    graded = Measured({"googleplus": result}).graded
    assert [graded("googleplus", "test2", "relaxed_consistency", above)
            for above in (0, 1, 2)] == [2 / 3, 1 / 3, 0.0]
    assert graded("googleplus", "test1", "relaxed_consistency") == 1.0
    assert graded("googleplus", "test2", "stale_read_inversions",
                  above=5) == 0.0
    assert Measured({"googleplus": empty("googleplus")}).graded(
        "googleplus", "test2", "relaxed_consistency") is None


def test_a_repeated_statistic_is_weighted_once():
    weighted = {row.id for row in (*CLAIMS, *FIT_ROWS) if row.weight}
    assert "fig3.facebook_feed.monotonic_writes.present" in weighted
    assert "fig5.facebook_feed.monotonic_writes" not in weighted
    assert "fig3.facebook_group.writes_follow_reads" in weighted
    assert "fig7.facebook_group.writes_follow_reads" not in weighted


# -- Across seeds: the interval rule ------------------------------------

CELL = Claim("fig3.googleplus.read_your_writes", None, paper=0.22)


def seeds(*counts):
    """``across_seeds`` of one Fig. 3 cell from per-seed counts."""
    return across_seeds(CELL, [hits / tests for hits, tests in counts],
                        list(counts))


def textbook_wilson(p, n):
    """Wilson (1927), written out as Newcombe (1998) states it."""
    z2 = Z95 ** 2
    root = Z95 * (z2 + 4 * n * p * (1 - p)) ** 0.5
    return ((2 * n * p + z2 - root) / (2 * (n + z2)),
            (2 * n * p + z2 + root) / (2 * (n + z2)))


@pytest.mark.parametrize("hits, tests, low, high", [
    (0, 1500, 0.0, 0.00255),     # z^2 / (n + z^2)
    (81, 263, 0.2553, 0.3662),   # Newcombe (1998), Table I
    (15, 148, 0.0624, 0.1605),   # Newcombe (1998), Table I
    (0, 20, 0.0, 0.1611),        # Newcombe (1998), Table I
])
def test_one_seed_interval_is_the_textbook_wilson(hits, tests, low, high):
    verdict = seeds((hits, tests))
    assert verdict.kind == "pooled" and verdict.dispersion is None
    assert verdict.interval == pytest.approx((low, high), abs=5e-5)
    # At every size, an all-zero rate's interval starts at exactly 0
    # and an all-positive rate's ends at exactly 1.
    for n in range(1, 2001):
        none, every = seeds((0, n)).interval, seeds((n, n)).interval
        assert none[0] == 0.0 and every[1] == 1.0, n
        assert none[1] == pytest.approx(textbook_wilson(0.0, n)[1])
        assert every[0] == pytest.approx(textbook_wilson(1.0, n)[0])


def test_steady_seeds_pool_their_counts():
    # Equal rates at every seed: D = 0 <= 1, so n is the pooled n.
    verdict = seeds((10, 100), (10, 100), (10, 100))
    assert verdict.dispersion == pytest.approx(0.0, abs=1e-12)
    assert verdict.kind == "pooled"
    assert verdict.interval == pytest.approx(textbook_wilson(0.1, 300))
    assert verdict.spread == (0.1, 0.1)


def test_dispersed_seeds_shrink_n_by_d():
    # Rates 0.05 and 0.25 around p = 0.15: across-seed variance 0.02
    # over a binomial 0.15 * 0.85 / 100.
    verdict = seeds((5, 100), (25, 100))
    d = 0.02 / (0.15 * 0.85 / 100)
    assert verdict.dispersion == pytest.approx(d)
    assert verdict.kind == "dispersed"
    assert verdict.interval == pytest.approx(
        textbook_wilson(0.15, 200 / d))
    assert verdict.value == pytest.approx(0.15)
    assert verdict.spread == (0.05, 0.25)


@pytest.mark.parametrize("counts", [
    ((0, 50), (0, 50)),     # a 0 cell
    ((50, 50), (50, 50)),   # a 1 cell
    ((7, 50),),             # one seed
])
def test_undefined_d_is_pooled_and_printed_as_a_dash(counts):
    verdict = seeds(*counts)
    assert verdict.dispersion is None and verdict.kind == "pooled"
    (line,) = seeds_table([verdict]).splitlines()[1:]
    assert line.split()[3] == "-"
    assert line.split()[-3] == "pooled"


def test_paper_inside_flag():
    assert seeds((22, 100)).paper_inside is True
    assert seeds((2, 100)).paper_inside is False
    assert "NO" in seeds_table([seeds((2, 100))])
    assert across_seeds(Claim("x", None), [0.5], [(1, 2)]) \
        .paper_inside is None
    assert across_seeds(CELL, [3.0, 5.0]).interval is None
    assert across_seeds(CELL, [3.0, 5.0]).paper_inside is None


def test_a_single_seed_verdict_keeps_its_defaults():
    (verdict,) = evaluate_claims({"blogger": empty("blogger")})[:1]
    assert (verdict.spread, verdict.dispersion, verdict.interval,
            verdict.kind, verdict.paper_inside) == (None,) * 5


def test_held_at_counts_only_the_seeds_a_row_applies_at():
    row = Claim("fig6.x", None)
    per_seed = {1: [Verdict(row, holds=True)],
                2: [Verdict(row, holds=False)],
                3: [Verdict(row, applies=False)]}
    assert held_at(per_seed) == {"fig6.x": (1, 2)}


# -- Decision size: n* ---------------------------------------------------

def sized(op, values, limits, tests=300):
    """``decision_size`` of a row with per-seed values and limits."""
    claim = Claim("fig3.x", None, op)
    return decision_size([Verdict(claim, value, limit,
                                  _OPS[op](value, limit))
                          for value, limit in zip(values, limits)], tests)


def test_a_constant_positive_margin_decides_at_one_test():
    assert sized(">=", [0.9] * 5, [0.5] * 5) == 1
    assert sized("==", [0.3] * 5, [0.3] * 5) == 1  # a Table I plan
    assert sized("in", [10.0, 10.0], [(5.0, 25.0)] * 2) == 1


def test_no_positive_mean_margin_is_never_decided():
    assert sized(">=", [0.4, 0.6], [0.5, 0.5]) == math.inf  # mean 0
    assert sized("<=", [0.2, 0.3], [0.1, 0.1]) == math.inf
    assert sized("in", [0.5, 0.6], [(0.05, 0.45)] * 2) == math.inf


def test_a_varying_equality_row_is_never_decided():
    # The Group's RYW at seeds 201-205: 0 at three, above 0 at two.
    assert sized("==", [0.003, 0.0, 0.0, 0.0, 0.007],
                 [0.0] * 5) == math.inf
    assert sized("==", [0.5, 0.5], [0.4, 0.4]) == math.inf  # fails


def test_fewer_than_two_applying_seeds_give_no_size():
    claim = Claim("fig3.x", None, ">")
    assert decision_size([Verdict(claim, 1.0, 0.0)], 300) is None
    assert decision_size([Verdict(claim, 1.0, 0.0),
                          Verdict(claim, applies=False)], 300) is None


def test_a_statistic_bound_reads_each_seeds_own_limit():
    # "a < b": margin b - a per seed, 0.2 and 0.3, not against one
    # shared limit; n* = ceil(300 (Z * sd / mean)^2).
    sd, mean = math.sqrt(0.005), 0.25
    assert sized("<", [0.1, 0.2], [0.3, 0.5]) \
        == math.ceil(300 * (Z95 * sd / mean) ** 2) == 93
    # The same values against one shared limit give another n*.
    assert sized("<", [0.1, 0.2], [0.5, 0.5]) == 48


def test_a_rate_row_is_the_interval_closed_form():
    # A Fig. 3 rate against a constant: n* = Z^2 D p (1 - p) / m^2, the
    # size at which across_seeds' normal half-width at n / D is m.
    counts = [(21, 100), (30, 100), (24, 100), (33, 100)]
    rates = [hits / tests for hits, tests in counts]
    cell = seeds(*counts)
    p, d, m = cell.value, cell.dispersion, cell.value - 0.2
    assert d > 1
    closed = Z95 ** 2 * d * p * (1 - p) / m ** 2
    assert sized(">", rates, [0.2] * 4, tests=100) == math.ceil(closed)
    assert closed == pytest.approx(
        100 * (Z95 * math.sqrt(sum((r - p) ** 2 for r in rates) / 3)
               / m) ** 2)
