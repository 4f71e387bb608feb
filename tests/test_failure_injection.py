"""Failure-injection tests: the harness must survive a hostile network.

The measurement methodology ran for a month against the real internet;
its simulated counterpart must likewise tolerate lossy links, RPC
timeouts, and partitions without wedging — tests hit timeouts, agents
log fewer operations, but campaigns complete and the analysis stays
sound.
"""

from repro.core import CONTENT_DIVERGENCE
from repro.methodology import (
    PAPER_PLANS,
    CampaignConfig,
    MeasurementWorld,
    run_campaign,
    run_test1,
    run_test2,
)
from repro.sim import spawn

from tests.helpers import assert_well_formed


def drive(world, runner, *args):
    process = spawn(world.sim, runner, *args)
    while not process.completion.done:
        world.sim.run_until(world.sim.now + 60.0)
    return process.completion.value


class TestLossyLinks:
    def test_test1_completes_under_moderate_request_loss(self):
        world = MeasurementWorld("blogger", seed=23)
        # 10% loss from each agent toward the API host.
        for agent in world.agents:
            world.faults.set_loss(agent.host, "blogger-api", 0.10)
        trace = drive(world, run_test1, world, "lossy",
                      PAPER_PLANS["blogger"].test1)
        # The test still finishes with all six writes logged (posts
        # retry is not needed; lost requests surface as timeouts and
        # the read loop keeps going).
        assert_well_formed(trace)
        assert len(trace.reads()) > 0
        failed = sum(agent.failed_requests for agent in world.agents)
        assert failed > 0, "loss injection should cause some failures"

    def test_failed_reads_are_not_logged(self):
        world = MeasurementWorld("blogger", seed=29)
        for agent in world.agents:
            world.faults.set_loss(agent.host, "blogger-api", 0.5)
        trace = drive(world, run_test2, world, "lossy2",
                      PAPER_PLANS["blogger"].test2)
        # Heavy loss: far fewer reads than configured, but every
        # logged read is well-formed.
        configured = PAPER_PLANS["blogger"].test2.reads_per_agent
        for agent in trace.agents:
            assert len(trace.reads_by(agent)) <= configured
        assert_well_formed(trace)


class TestAgentIsolation:
    def test_isolated_agent_wedges_nothing(self):
        # Tokyo loses connectivity entirely for the first half of the
        # test; the safety timeout plus RPC timeouts must still land
        # the test.
        world = MeasurementWorld("blogger", seed=31)
        start = world.sim.now
        world.faults.isolate("agent-tokyo", start, start + 30.0)
        plan = PAPER_PLANS["blogger"].test1
        trace = drive(world, run_test1, world, "isolated", plan)
        # Oregon wrote M1/M2 fine; tokyo could not see M2 while
        # isolated, so the chain stalls until the isolation lifts or
        # the timeout fires — either way we get a valid trace.
        assert_well_formed(trace)
        assert any(w.agent == "oregon" for w in trace.writes())

    def test_campaign_survives_partition_stretch(self):
        result = run_campaign("facebook_group", CampaignConfig(
            num_tests=8, seed=37, test_types=("test2",),
            group_partition_tests=4,
        ))
        assert result.total_tests == 8
        # Partitioned tests diverge; all tests produce full writes.
        assert result.prevalence(CONTENT_DIVERGENCE) > 0
        for record in result.records:
            assert sum(record.writes_per_agent.values()) == 3


class TestCoordinatorDegradation:
    def test_unreachable_agents_degrade_instead_of_wedging(self):
        # If the coordinator cannot reach any agent, clock sync
        # completes with degraded zero-delta estimates and counts the
        # failures, rather than hanging or crashing the campaign.
        world = MeasurementWorld("blogger", seed=41)
        world.faults.isolate("coordinator", world.sim.now,
                             world.sim.now + 1e6)
        estimates = drive(world, world.coordinator.sync_clocks)
        assert world.coordinator.sync_failures == 3
        for estimate in estimates.values():
            assert estimate.samples == 0
            assert estimate.delta == 0.0
            assert (estimate.uncertainty
                    == world.coordinator.DEGRADED_UNCERTAINTY)

    def test_previous_estimate_is_carried_forward(self):
        world = MeasurementWorld("blogger", seed=41)
        first = dict(drive(world, world.coordinator.sync_clocks))
        # Now isolate tokyo and resync: tokyo keeps its old estimate.
        world.faults.isolate("agent-tokyo", world.sim.now,
                             world.sim.now + 1e6)
        second = drive(world, world.coordinator.sync_clocks)
        assert second["tokyo"] is first["tokyo"]
        assert second["oregon"] is not first["oregon"]
        assert world.coordinator.sync_failures == 1

    def test_jittery_links_still_bound_estimation_error(self):
        world = MeasurementWorld("blogger", seed=43,
                                 jitter_sigma=0.35)
        estimates = drive(world, world.coordinator.sync_clocks)
        for agent in world.agents:
            estimate = estimates[agent.name]
            true_delta = (agent.clock.now()
                          - world.coordinator.clock.now())
            # Heavy jitter widens the bound; the estimate must stay
            # within a small multiple of it.
            assert abs(estimate.delta - true_delta) \
                <= 2.0 * estimate.uncertainty
