"""Integration tests for the test templates and campaign runner."""

import pytest

from repro.core import READ_YOUR_WRITES
from repro.errors import ConfigurationError
from repro.methodology import (
    PAPER_PLANS,
    CampaignConfig,
    MeasurementWorld,
    Test1Config,
    Test2Config,
    analyze_trace,
    run_campaign,
    run_test1,
    run_test2,
)
from repro.sim import spawn

from tests.helpers import assert_well_formed


def run_one(world, runner, test_id, config):
    process = spawn(world.sim, runner, world, test_id, config)
    while not process.completion.done:
        world.sim.run_until(world.sim.now + 60.0)
    return process.completion.value


class TestConfigs:
    def test_paper_plans_cover_all_services(self):
        # The paper's four services plus the storage extension.
        assert set(PAPER_PLANS) == {
            "googleplus", "blogger", "facebook_feed", "facebook_group",
            "quorum_kv",
        }

    def test_table1_parameters(self):
        plan = PAPER_PLANS["googleplus"]
        assert plan.test1.read_period == pytest.approx(0.3)
        assert plan.test1.inter_test_gap == pytest.approx(34 * 60.0)
        assert plan.test1.paper_num_tests == 1036

    def test_table2_parameters(self):
        plan = PAPER_PLANS["facebook_feed"]
        assert plan.test2.fast_reads == 20
        assert plan.test2.slow_read_period == pytest.approx(1.0)
        assert plan.test2.paper_num_tests == 1012

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            Test1Config(read_period=0.0)
        with pytest.raises(ConfigurationError):
            Test2Config(reads_per_agent=0)
        with pytest.raises(ConfigurationError):
            CampaignConfig(num_tests=0)
        with pytest.raises(ConfigurationError):
            CampaignConfig(test_types=("test3",))

    def test_partition_span_autoscaling(self):
        assert CampaignConfig(num_tests=1126).effective_partition_tests() \
            == 9
        assert CampaignConfig(num_tests=100).effective_partition_tests() \
            == 1
        assert CampaignConfig(
            num_tests=100, group_partition_tests=5
        ).effective_partition_tests() == 5


class TestWorld:
    def test_world_has_paper_deployment(self):
        world = MeasurementWorld("blogger", seed=1)
        assert world.agent_names == ("oregon", "tokyo", "ireland")
        assert world.coordinator.host == "coordinator"
        regions = {
            agent.name: world.topology.region_of(agent.host).name
            for agent in world.agents
        }
        assert regions == {"oregon": "oregon", "tokyo": "tokyo",
                           "ireland": "ireland"}

    def test_agent_lookup(self):
        world = MeasurementWorld("blogger", seed=1)
        assert world.agent("tokyo").name == "tokyo"
        with pytest.raises(KeyError):
            world.agent("mars")

    def test_agents_have_distinct_skewed_clocks(self):
        world = MeasurementWorld("blogger", seed=1)
        offsets = {agent.clock.offset for agent in world.agents}
        assert len(offsets) == 3
        assert all(offset != 0.0 for offset in offsets)


class TestTest1:
    def test_produces_six_staggered_writes(self):
        world = MeasurementWorld("blogger", seed=2)
        trace = run_one(world, run_test1, "t1",
                        PAPER_PLANS["blogger"].test1)
        assert trace.test_type == "test1"
        writers = [w.agent for w in trace.writes()]
        assert writers == ["oregon", "oregon", "tokyo", "tokyo",
                           "ireland", "ireland"]
        assert_well_formed(trace)

    def test_wfr_triggers_match_paper(self):
        world = MeasurementWorld("blogger", seed=2)
        trace = run_one(world, run_test1, "t1",
                        PAPER_PLANS["blogger"].test1)
        assert trace.wfr_triggers == {
            "t1.M3": frozenset({"t1.M2"}),
            "t1.M5": frozenset({"t1.M4"}),
        }

    def test_staggering_respects_observation_chain(self):
        # Agent 2's first write (M3) must be invoked only after a
        # tokyo read observed M2.
        world = MeasurementWorld("blogger", seed=2)
        trace = run_one(world, run_test1, "t1",
                        PAPER_PLANS["blogger"].test1)
        m3 = next(w for w in trace.writes() if w.message_id == "t1.M3")
        tokyo_saw_m2 = min(
            read.response_local for read in trace.reads_by("tokyo")
            if read.saw("t1.M2")
        )
        assert m3.invoke_local >= tokyo_saw_m2

    def test_all_agents_keep_reading_until_m6_visible(self):
        world = MeasurementWorld("blogger", seed=2)
        trace = run_one(world, run_test1, "t1",
                        PAPER_PLANS["blogger"].test1)
        for agent in trace.agents:
            assert any(read.saw("t1.M6")
                       for read in trace.reads_by(agent))

    def test_clock_deltas_recorded_for_all_agents(self):
        world = MeasurementWorld("blogger", seed=2)
        trace = run_one(world, run_test1, "t1",
                        PAPER_PLANS["blogger"].test1)
        assert set(trace.clock_deltas) == set(trace.agents)
        assert all(unc > 0 for unc in trace.delta_uncertainty.values())

    def test_message_ids_are_test_scoped(self):
        world = MeasurementWorld("blogger", seed=2)
        trace_a = run_one(world, run_test1, "alpha",
                          PAPER_PLANS["blogger"].test1)
        trace_b = run_one(world, run_test1, "beta",
                          PAPER_PLANS["blogger"].test1)
        assert trace_a.message_ids().isdisjoint(trace_b.message_ids())


class TestTest2:
    def test_each_agent_writes_exactly_once(self):
        world = MeasurementWorld("blogger", seed=4)
        trace = run_one(world, run_test2, "t2",
                        PAPER_PLANS["blogger"].test2)
        assert trace.test_type == "test2"
        writes = trace.writes()
        assert len(writes) == 3
        assert {w.agent for w in writes} == set(trace.agents)

    def test_writes_are_nearly_simultaneous(self):
        world = MeasurementWorld("blogger", seed=4)
        trace = run_one(world, run_test2, "t2",
                        PAPER_PLANS["blogger"].test2)
        # True (ground-truth) invocation times must agree within the
        # clock-sync error bound plus scheduling slack.
        invokes = [w.true_invoke for w in trace.writes()]
        assert max(invokes) - min(invokes) < 0.25

    def test_read_count_matches_configuration(self):
        config = Test2Config(reads_per_agent=12, fast_reads=5)
        world = MeasurementWorld("blogger", seed=4)
        trace = run_one(world, run_test2, "t2", config)
        for agent in trace.agents:
            assert len(trace.reads_by(agent)) == 12

    def test_adaptive_read_cadence(self):
        config = Test2Config(reads_per_agent=10, fast_reads=5,
                             fast_read_period=0.3, slow_read_period=1.0)
        world = MeasurementWorld("blogger", seed=4)
        trace = run_one(world, run_test2, "t2", config)
        reads = trace.reads_by("oregon")
        fast_gaps = [reads[i + 1].invoke_local - reads[i].invoke_local
                     for i in range(3)]
        slow_gaps = [reads[i + 1].invoke_local - reads[i].invoke_local
                     for i in range(6, 9)]
        assert max(fast_gaps) < 0.7
        assert min(slow_gaps) > 0.8


class TestAnalyzeTrace:
    def test_record_contains_windows_for_all_pairs(self):
        world = MeasurementWorld("blogger", seed=5)
        trace = run_one(world, run_test2, "t",
                        PAPER_PLANS["blogger"].test2)
        record = analyze_trace(trace)
        expected_pairs = {("oregon", "tokyo"), ("ireland", "oregon"),
                          ("ireland", "tokyo")}
        assert set(record.content_windows) == expected_pairs
        assert set(record.order_windows) == expected_pairs

    def test_keep_trace_flag(self):
        world = MeasurementWorld("blogger", seed=5)
        trace = run_one(world, run_test2, "t",
                        PAPER_PLANS["blogger"].test2)
        assert analyze_trace(trace, keep_trace=True).trace is trace
        assert analyze_trace(trace, keep_trace=False).trace is None


class TestCampaign:
    def test_campaign_is_deterministic_in_seed(self):
        config = CampaignConfig(num_tests=4, seed=11)
        first = run_campaign("googleplus", config)
        second = run_campaign("googleplus", config)
        assert first.summary() == second.summary()
        assert first.total_reads == second.total_reads

    def test_different_seeds_differ(self):
        a = run_campaign("googleplus",
                         CampaignConfig(num_tests=6, seed=1))
        b = run_campaign("googleplus",
                         CampaignConfig(num_tests=6, seed=2))
        assert a.total_reads != b.total_reads

    def test_campaign_runs_both_test_types(self):
        result = run_campaign("blogger",
                              CampaignConfig(num_tests=3, seed=1))
        assert len(result.of_type("test1")) == 3
        assert len(result.of_type("test2")) == 3

    def test_single_test_type_config(self):
        result = run_campaign(
            "blogger",
            CampaignConfig(num_tests=3, seed=1, test_types=("test2",)),
        )
        assert result.of_type("test1") == []
        assert len(result.of_type("test2")) == 3

    def test_prevalence_helper(self):
        result = run_campaign("blogger",
                              CampaignConfig(num_tests=3, seed=1))
        assert result.prevalence(READ_YOUR_WRITES) == 0.0

    def test_group_partition_injection_causes_divergence(self):
        # With a forced long partition stretch, the facebook_group
        # test-2 campaign must show content divergence involving tokyo.
        result = run_campaign(
            "facebook_group",
            CampaignConfig(num_tests=6, seed=3,
                           test_types=("test2",),
                           group_partition_tests=3),
        )
        diverged = [
            record for record in result.of_type("test2")
            if record.report.has("content_divergence")
        ]
        assert diverged, "injected partition must surface divergence"
        for record in diverged:
            pairs = record.report.diverged_pairs("content_divergence")
            assert all("tokyo" in pair for pair in pairs)

    def test_partition_disabled_with_zero(self):
        result = run_campaign(
            "facebook_group",
            CampaignConfig(num_tests=4, seed=3,
                           test_types=("test2",),
                           group_partition_tests=0),
        )
        assert result.total_tests == 4
