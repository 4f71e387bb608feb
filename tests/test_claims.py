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

import re

import pytest

from repro._hash import sha256
from repro.calibrate import PAPER_TARGETS
from repro.calibrate.claims import (
    CLAIMS,
    FIT_ROWS,
    Z95,
    Claim,
    across_seeds,
    claims_table,
    evaluate_claims,
    Verdict,
    held_at,
    seeds_table,
)
from repro.core import ALL_ANOMALIES
from repro.methodology import CampaignConfig, CampaignResult

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
#: The Figs. 5a, 8, 9 and 10 cells that had no row at that point.
ADDED = ("fig5.googleplus.monotonic_writes.multis_over_singles",
         "fig8.facebook_group.oregon_tokyo.present",
         "fig8.facebook_group.ireland_tokyo.present",
         "fig9.facebook_group.tokyo_windows",
         "fig10.googleplus.oregon_tokyo.order")

GUARDED = ("fig5.googleplus.monotonic_writes.local",
           "fig6.googleplus.monotonic_reads.local",
           "fig6.facebook_feed.monotonic_reads.local",
           "fig9.googleplus.oregon_tokyo_vs_ireland",
           "fig5.googleplus.monotonic_writes.multis_over_singles")


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
    for claim in CLAIMS:
        for pattern, lookup in TARGETED:
            row = re.fullmatch(pattern, claim.id)
            if row:
                targets = PAPER_TARGETS[row["service"]]
                assert claim.paper is lookup(targets, row), claim.id
                matched.add(claim.id)
    fig3 = {claim.id for claim in CLAIMS if claim.id.startswith("fig3.")}
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
    assert len(recorded) == 151 and len(ids) == 151 + len(ADDED)
    assert sha256("\n".join(recorded).encode()).hexdigest() \
        == CLAIM_IDS_SHA256
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
