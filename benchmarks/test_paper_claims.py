"""The paper's §V shape claims, one test per row of the claims table.

Every row of :data:`repro.calibrate.claims.CLAIMS` — Figure 3
prevalences, the Figures 4–7 local/global splits, the Figure 8
Oregon–Tokyo asymmetry, the Figures 9–10 windows, the Tables I/II
configuration and reads, the §V totals — is evaluated once on the
shared bench campaigns and asserted here by id.  The table is printed
once, so a ``-s`` run shows which claims hold and by what margin.
"""

import pytest

from repro.calibrate.claims import CLAIMS, claims_table, evaluate_claims
from repro.methodology import PAPER_PLANS


@pytest.fixture(scope="module")
def verdicts(campaigns):
    evaluated = evaluate_claims(campaigns)
    print("\nPaper claims (§V) on the bench campaigns")
    print(claims_table(evaluated))
    return {verdict.claim.id: verdict for verdict in evaluated}


@pytest.mark.parametrize("claim_id", [claim.id for claim in CLAIMS])
def test_claim_holds(claim_id, verdicts):
    verdict = verdicts[claim_id]
    assert verdict.holds, claims_table([verdict])


def test_adaptive_cadence_is_executed(campaigns, benchmark):
    # Verify the 300ms-then-1s schedule on actual blogger traces by
    # re-running one test with kept traces.
    from repro.methodology import CampaignConfig, run_campaign

    result = benchmark.pedantic(
        run_campaign,
        args=("blogger", CampaignConfig(
            num_tests=1, seed=9, test_types=("test2",),
            keep_traces=True,
        )),
        rounds=1, iterations=1,
    )
    (record,) = result.records
    reads = record.trace.reads_by("oregon")
    plan = PAPER_PLANS["blogger"].test2
    fast_gaps = [reads[i + 1].invoke_local - reads[i].invoke_local
                 for i in range(plan.fast_reads - 2)]
    slow_gaps = [reads[i + 1].invoke_local - reads[i].invoke_local
                 for i in range(plan.fast_reads, len(reads) - 1)]
    assert max(fast_gaps) < 0.7, "fast phase must stay near 300ms"
    assert min(slow_gaps) > 0.8, "slow phase must stretch to ~1s"
