"""Tests for campaign replication and parameter sweeps.

Both are fleet specs: replicates are ``FleetSpec(seeds=...)`` and a
sweep is ``FleetSpec(param_grid=...)``, run by :func:`run_fleet`.
"""

import pytest

from repro.analysis import prevalence_rows
from repro.calibrate.claims import (
    Claim,
    across_seeds,
    evaluate_seeds,
    fig3_lines,
)
from repro.core import MONOTONIC_WRITES, READ_YOUR_WRITES
from repro.errors import ConfigurationError
from repro.fleet import FleetSpec, run_fleet
from repro.methodology import CampaignConfig
from repro.replication import QuorumParams
from repro.services import QuorumKvParams

SMALL = CampaignConfig(num_tests=3, seed=0, test_types=("test1",))


def run_replicates(service, config, seeds, **kwargs):
    spec = FleetSpec(services=(service,), base_config=config,
                     seeds=tuple(seeds))
    return run_fleet(spec, **kwargs).results


class TestReplicate:
    def test_runs_one_campaign_per_seed(self):
        results = run_replicates("blogger", SMALL, seeds=[1, 2, 3])
        assert len(results) == 3
        assert [r.config.seed for r in results] == [1, 2, 3]

    def test_same_seed_reproduces(self):
        (a,) = run_replicates("googleplus", SMALL, seeds=[5])
        (b,) = run_replicates("googleplus", SMALL, seeds=[5])
        assert a.summary() == b.summary()

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            run_replicates("blogger", SMALL, seeds=[])

    def test_duplicate_seeds_rejected(self):
        # A duplicated seed re-runs the identical campaign and skews
        # the across-seed rows' sample counts.
        with pytest.raises(ConfigurationError,
                           match=r"duplicate seeds \[5\]"):
            run_replicates("googleplus", SMALL, seeds=[5, 5])

    def test_parallel_replicate_matches_serial(self):
        serial = run_replicates("blogger", SMALL, seeds=[1, 2])
        parallel = run_replicates("blogger", SMALL, seeds=[1, 2],
                                  jobs=2)
        assert [r.summary() for r in parallel] == \
            [r.summary() for r in serial]


class TestSweep:
    def test_one_result_per_configuration(self):
        # The quorum R/W grid: one shard per labelled service_params.
        grid = (
            ("weak", QuorumKvParams(
                quorum=QuorumParams(read_quorum=1, write_quorum=1)
            )),
            ("strict", QuorumKvParams(
                quorum=QuorumParams(read_quorum=2, write_quorum=2)
            )),
        )
        outcome = run_fleet(FleetSpec(
            services=("quorum_kv",), base_config=SMALL,
            seeds=(SMALL.seed,), param_grid=grid))
        results = {job.label: result
                   for job, result in zip(outcome.jobs, outcome.results)}
        assert list(results) == ["weak", "strict"]
        weak = results["weak"].prevalence(READ_YOUR_WRITES)
        strict = results["strict"].prevalence(READ_YOUR_WRITES)
        assert strict == 0.0
        assert weak >= strict

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError, match="param_grid"):
            FleetSpec(services=("blogger",), base_config=SMALL,
                      seeds=(SMALL.seed,), param_grid=())


class TestPrevalenceStatistics:
    """Figure 3 across seeds, as `fleet --seeds` reports it: the
    per-seed claim rows and their across-seed reduction."""

    def test_aggregates_across_seeds(self):
        outcome = run_fleet(FleetSpec(
            services=("googleplus",), seeds=(1, 2, 3),
            base_config=CampaignConfig(num_tests=5, seed=0,
                                       test_types=("test1",))))
        assert list(evaluate_seeds(outcome)) == [1, 2, 3]
        lines = fig3_lines("googleplus", outcome.results)
        assert len(lines) == 6
        for line in lines:
            low, high = line.spread
            assert 0.0 <= low <= line.value <= high <= 1.0

    def test_blogger_is_zero_everywhere(self):
        outcome = run_fleet(FleetSpec(services=("blogger",),
                                      base_config=SMALL, seeds=(1, 2)))
        for verdicts in evaluate_seeds(outcome).values():
            fig3 = [verdict for verdict in verdicts
                    if verdict.claim.id.startswith("fig3.")]
            assert len(fig3) == 6
            assert all(verdict.value == 0.0 and verdict.holds
                       for verdict in fig3)
        assert all(line.value == 0.0 for line in
                   fig3_lines("blogger", outcome.results))

    def test_each_anomaly_is_assessed_on_its_own_template(self):
        # Figure 3 assesses monotonic writes on Test 1 only: pooling
        # the Test 2 records, which cannot show it, halves the share.
        outcome = run_fleet(FleetSpec(
            services=("facebook_group",), seeds=(3,),
            base_config=CampaignConfig(num_tests=4, seed=3)))
        (result,) = outcome.results
        fig3 = {f"fig3.facebook_group.{row.anomaly}": row.fraction
                for row in prevalence_rows(result)}
        assert fig3[f"fig3.facebook_group.{MONOTONIC_WRITES}"] > 0.0
        (verdicts,) = evaluate_seeds(outcome).values()
        rows = {verdict.claim.id: verdict.value for verdict in verdicts
                if verdict.claim.id in fig3}
        assert len(rows) == 4  # RYW and content divergence: fit rows
        assert rows == {row: fig3[row] for row in rows}
        assert {line.claim.id: line.value for line in fig3_lines(
            "facebook_group", [result])} == fig3

    def test_empty_results_rejected(self):
        with pytest.raises(ConfigurationError):
            across_seeds(Claim("fig3.blogger.read_your_writes", None), [])
