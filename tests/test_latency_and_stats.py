"""Tests for endpoint traffic statistics."""

from repro.methodology import CampaignConfig, run_campaign

from tests.test_webapi import make_endpoint_world, run_and_get


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
