"""Tests for the paper's claims table (repro.calibrate.claims).

The table's contract: one row per claim id, every paper number a row
shows is read from ``PAPER_TARGETS`` rather than restated, a guarded
row reports "n/a" and holds exactly when its guard is false, and a
subset of services evaluates and renders only the rows it can read.
Whether the rows hold on the bench campaigns is
``benchmarks/test_paper_claims.py``'s job.
"""

import re

import pytest

from repro.calibrate import PAPER_TARGETS
from repro.calibrate.claims import CLAIMS, claims_table, evaluate_claims
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

GUARDED = ("fig5.googleplus.monotonic_writes.local",
           "fig6.googleplus.monotonic_reads.local",
           "fig6.facebook_feed.monotonic_reads.local",
           "fig9.googleplus.oregon_tokyo_vs_ireland")


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
