"""Tests for latency analysis and endpoint traffic statistics."""

import pytest

from repro.analysis import (
    latency_table,
    operation_latencies,
)
from repro.errors import AnalysisError
from repro.methodology import CampaignConfig, run_campaign
from repro.replication import QuorumParams
from repro.services import QuorumKvParams

from tests.test_webapi import make_endpoint_world, run_and_get


class TestOperationLatencies:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_campaign("blogger", CampaignConfig(
            num_tests=3, seed=7, test_types=("test1",),
            keep_traces=True,
        ))

    def test_breakdown_covers_all_agents(self, campaign):
        breakdown = operation_latencies(campaign)
        assert set(breakdown.writes) == {"oregon", "tokyo", "ireland"}
        assert set(breakdown.reads) == {"oregon", "tokyo", "ireland"}

    def test_latencies_are_positive_and_plausible(self, campaign):
        breakdown = operation_latencies(campaign)
        for agent in breakdown.writes:
            stats = breakdown.write_stats(agent)
            # Blogger writes pay RTT + processing + sync replication.
            assert 0.1 < stats["median"] < 2.0
        for agent in breakdown.reads:
            stats = breakdown.read_stats(agent)
            assert 0.0 < stats["median"] < 1.0

    def test_writes_cost_more_than_reads_on_blogger(self, campaign):
        breakdown = operation_latencies(campaign)
        assert (breakdown.overall_write_mean()
                > breakdown.overall_read_mean())

    def test_quorum_write_latency_scales_with_w(self):
        means = {}
        for w in (1, 3):
            params = QuorumKvParams(quorum=QuorumParams(
                read_quorum=1, write_quorum=w,
            ))
            result = run_campaign("quorum_kv", CampaignConfig(
                num_tests=4, seed=9, test_types=("test1",),
                keep_traces=True, service_params=params,
            ))
            means[w] = operation_latencies(result).overall_write_mean()
        assert means[3] > means[1]

    def test_requires_kept_traces(self):
        result = run_campaign("blogger", CampaignConfig(
            num_tests=1, seed=7, test_types=("test1",),
        ))
        with pytest.raises(AnalysisError, match="keep_traces"):
            operation_latencies(result)

    def test_table_renders(self, campaign):
        text = latency_table(operation_latencies(campaign))
        assert "write" in text and "read" in text
        assert "oregon" in text


class TestEndpointStats:
    def test_requests_and_statuses_counted(self):
        sim, endpoint, client, _ = make_endpoint_world()
        endpoint.router.add("GET", "/hello", lambda r, a: {"ok": True})
        run_and_get(sim, client.get("/hello"))
        run_and_get(sim, client.get("/hello"))
        run_and_get(sim, client.get("/missing"))  # 400
        stats = endpoint.stats
        assert stats.requests_total == 3
        assert stats.requests_by_route[("GET", "/hello")] == 2
        assert stats.responses_by_status[200] == 2
        assert stats.responses_by_status[400] == 1

    def test_deferred_responses_counted_at_resolution(self):
        sim, endpoint, client, _ = make_endpoint_world(processing=0.2)
        endpoint.router.add("GET", "/slow", lambda r, a: {})
        future = client.get("/slow")
        assert endpoint.stats.responses_by_status == {}
        run_and_get(sim, future)
        assert endpoint.stats.responses_by_status[200] == 1

    def test_rate_limited_counter(self):
        from repro.webapi import RateLimit, SlidingWindowRateLimiter

        sim, endpoint, client, _ = make_endpoint_world()
        endpoint._rate_limiter = SlidingWindowRateLimiter(
            RateLimit(max_requests=1, window=60.0),
            now_fn=lambda: sim.now,
        )
        endpoint.router.add("GET", "/hello", lambda r, a: {})
        first = client.get("/hello")
        second = client.get("/hello")
        sim.run_until(60.0)
        assert first.done and second.done
        assert endpoint.stats.rate_limited == 1

    def test_campaign_endpoints_accumulate_traffic(self):
        from repro.methodology import MeasurementWorld, run_test1
        from repro.methodology import PAPER_PLANS
        from repro.sim import spawn

        world = MeasurementWorld("blogger", seed=3)
        process = spawn(world.sim, run_test1, world, "t",
                        PAPER_PLANS["blogger"].test1)
        while not process.completion.done:
            world.sim.run_until(world.sim.now + 60.0)
        stats = world.service._endpoints["blogger-api"].stats
        assert stats.requests_total > 30  # 6 writes + ~30 reads
        assert all(200 <= status < 300
                   for status in stats.responses_by_status)
