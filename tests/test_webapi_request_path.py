"""The request path of ``repro.webapi``: resolved once, same behaviour.

``ServiceEndpoint`` resolves what a request needs of its route (handler,
effective delay parameters, the path's delay stream, the reply label)
at the path's first request, ``ApiClient`` resolves a status's
``api.responses_total`` counter at the first response with it, and
``ServiceSession`` settles the caller's future from one callback on the
RPC reply.  These tests pin what that must not change: every processing
delay equals the from-scratch formula whatever the interleaving, a
route registered late is served with its own parameters, the obs series
are the ones a per-response lookup produced (literal recorded at the
commit before the change), the session's outcomes and exception types
are the same — and the two bugs found on the way stay fixed: no handler
exception escapes the event loop, and ``EndpointStats`` balances.
"""

import math

import pytest

from repro.errors import (
    AuthenticationError,
    HostUnreachableError,
    InvalidRequestError,
    NotFoundError,
    RateLimitExceededError,
)
from repro.methodology import MeasurementWorld
from repro.net import (
    JitterParams,
    LatencyModel,
    Network,
    Region,
    Topology,
    paper_topology,
)
from repro.net.partition import FaultInjector
from repro.net.topology import OREGON
from repro.obs import ObsContext
from repro.services.base import ServiceSession, SessionRoutes
from repro.services.blogger import POST_PATH, BloggerService
from repro.services.profiles import EXTENSION_SERVICE_NAMES, SERVICE_NAMES
from repro.sim import Future, RandomSource, Simulator
from repro.webapi import (
    AccountRegistry,
    ApiClient,
    ApiResponse,
    RateLimit,
    Router,
    ServiceEndpoint,
    SlidingWindowRateLimiter,
)

from tests.helpers import scratch_stream

SEED = 29


class RecordingSource(RandomSource):
    """A ``RandomSource`` that lists the streams asked of it, in order."""

    def __init__(self, seed):
        super().__init__(seed)
        self.asked = []

    def stream(self, name):
        self.asked.append(name)
        return super().stream(name)


def make_net(obs=False, faults=None):
    """A jitter-free three-region network with one client host."""
    sim = Simulator()
    topology = Topology()
    for name in ("east", "west", "north"):
        topology.add_region(Region(name))
    topology.set_rtt("east", "west", 0.100)
    topology.set_rtt("east", "north", 0.060)
    topology.set_rtt("west", "north", 0.080)
    topology.place_host("client", "east")
    network = Network(
        sim,
        LatencyModel(topology, RandomSource(SEED).child("net"),
                     JitterParams(sigma=0.0)),
        faults=faults,
        obs=ObsContext(now_fn=lambda: sim.now) if obs else None,
    )
    network.attach("client")
    return sim, topology, network


def delay_oracle(seed, host, path, median, sigma):
    """The path's delay sequence, re-derived from scratch."""
    stream = scratch_stream(seed, f"processing.{host}.{path}")
    mu = math.log(median)
    while True:
        yield stream.lognormvariate(mu, sigma)


class TestDelayOracle:
    #: host -> (region, endpoint default median, default sigma, has rng)
    HOSTS = {
        "api-a": ("east", 0.05, 0.3, True),
        "api-b": ("west", 0.08, 0.5, True),
        "api-fixed": ("north", 0.02, 0.4, False),
    }
    #: path -> (median override, sigma override)
    ROUTES = {
        "/inherit": (None, None),
        "/tuned": (0.17, 0.6),
        "/instant": (0.0, None),
    }

    def test_interleaved_delays_equal_the_from_scratch_formula(self):
        sim, topology, network = make_net()
        shared = RecordingSource(RandomSource(SEED).child("svc").seed)
        accounts = AccountRegistry("svc")
        token = accounts.create_account("alice").token
        served = {}  # (host, request number) -> handler fire time

        def handler_for(host):
            def handler(request, account):
                served[host, request.param("n")] = sim.now
                return {}
            return handler

        clients = {}
        for host, (region, median, sigma, has_rng) in self.HOSTS.items():
            topology.place_host(host, region)
            router = Router()
            for path, (route_median, route_sigma) in self.ROUTES.items():
                router.add("GET", path, handler_for(host),
                           processing_delay_median=route_median,
                           processing_delay_sigma=route_sigma)
            ServiceEndpoint(sim, network, host, accounts,
                            rng=shared if has_rng else None,
                            processing_delay_median=median,
                            processing_delay_sigma=sigma, router=router)
            clients[host] = ApiClient(network, "client", host, token)
        assert shared.asked == []  # nothing is resolved at construction

        targets = [(host, path) for host in self.HOSTS
                   for path in self.ROUTES]
        arrivals = {}  # (host, request number) -> (path, arrival time)
        for n in range(360):
            # A fixed, uneven walk: some paths are hit back to back,
            # some only after many other paths drew.
            host, path = targets[(n * n + n // 4) % len(targets)]
            clients[host].get(path, {"n": n})
            arrivals[host, n] = (
                path, sim.now + network.latency.sample_one_way("client",
                                                               host))
            sim.run_until(sim.now + 0.013)
        sim.run_until(sim.now + 30.0)

        oracles = {}
        for (host, n), (path, arrived) in arrivals.items():
            _, default_median, default_sigma, has_rng = self.HOSTS[host]
            route_median, route_sigma = self.ROUTES[path]
            median = (default_median if route_median is None
                      else route_median)
            sigma = default_sigma if route_sigma is None else route_sigma
            if median == 0:
                expected = arrived
            elif not has_rng:
                expected = arrived + median
            else:
                if (host, path) not in oracles:
                    oracles[host, path] = delay_oracle(
                        shared.seed, host, path, median, sigma)
                # One link, no jitter: arrival order is request order.
                expected = arrived + next(oracles[host, path])
            assert served[host, n] == expected, (host, path, n)

        # One stream per delayed path, asked for once, at first use;
        # none for the zero-delay routes or the endpoint without rng.
        assert len(oracles) == 4
        assert sorted(shared.asked) == sorted(
            f"processing.{host}.{path}" for host, path in oracles)


class TestLateRegistration:
    def make_endpoint(self):
        sim, topology, network = make_net()
        topology.place_host("api", "west")
        rng = RecordingSource(SEED)
        accounts = AccountRegistry("svc")
        endpoint = ServiceEndpoint(sim, network, "api", accounts, rng=rng,
                                   processing_delay_median=0.05,
                                   processing_delay_sigma=0.3)
        client = ApiClient(network, "client", "api",
                           accounts.create_account("alice").token)
        return sim, network, endpoint, rng, client

    def serve(self, sim, network, client, path):
        """Issue one GET; return (its response, when it arrived)."""
        arrived = sim.now + network.latency.sample_one_way("client", "api")
        reply = client.get(path)
        sim.run_until(sim.now + 30.0)
        return reply.value, arrived

    def test_route_added_after_traffic_uses_its_own_overrides(self):
        sim, network, endpoint, rng, client = self.make_endpoint()
        fired = []
        endpoint.router.add("GET", "/early",
                            lambda r, a: fired.append(sim.now) or {})
        early = delay_oracle(SEED, "api", "/early", 0.05, 0.3)
        for _ in range(3):
            _, arrived = self.serve(sim, network, client, "/early")
            assert fired[-1] == arrived + next(early)
        response, _ = self.serve(sim, network, client, "/late")
        assert response.status == 400  # not routed yet
        endpoint.router.add("GET", "/late",
                            lambda r, a: fired.append(sim.now) or {},
                            processing_delay_median=0.4,
                            processing_delay_sigma=0.1)
        late = delay_oracle(SEED, "api", "/late", 0.4, 0.1)
        for _ in range(2):
            response, arrived = self.serve(sim, network, client, "/late")
            assert response.status == 200
            assert fired[-1] == arrived + next(late)
        assert rng.asked == ["processing.api./early",
                             "processing.api./late"]

    def test_parameterised_route_binds_params_per_concrete_path(self):
        sim, network, endpoint, rng, client = self.make_endpoint()
        seen = []

        def hunt(request, account):
            seen.append((request.param("hunt_id"), sim.now))
            return {"hunt": request.param("hunt_id")}

        endpoint.router.add("GET", "/v1/hunts/{hunt_id}", hunt,
                            processing_delay_median=0.2)
        oracles = {
            hunt_id: delay_oracle(SEED, "api", f"/v1/hunts/{hunt_id}",
                                  0.2, 0.3)
            for hunt_id in ("h1", "h2")
        }
        for hunt_id in ("h1", "h2", "h1", "h1", "h2"):
            response, arrived = self.serve(sim, network, client,
                                           f"/v1/hunts/{hunt_id}")
            assert response.body == {"hunt": hunt_id}
            assert seen[-1] == (hunt_id,
                                arrived + next(oracles[hunt_id]))

    def test_exact_route_registered_later_shadows_the_parameterised(self):
        sim, network, endpoint, rng, client = self.make_endpoint()
        endpoint.router.add("GET", "/v1/hunts/{hunt_id}",
                            lambda r, a: {"via": "param"},
                            processing_delay_median=0.2)
        response, _ = self.serve(sim, network, client, "/v1/hunts/all")
        assert response.body == {"via": "param"}
        fired = []
        endpoint.router.add(
            "GET", "/v1/hunts/all",
            lambda r, a: fired.append(sim.now) or {"via": "exact"},
            processing_delay_median=0.0)
        response, arrived = self.serve(sim, network, client,
                                       "/v1/hunts/all")
        assert response.body == {"via": "exact"}
        assert fired == [arrived]  # its own (zero) delay, not 0.2


#: ``api.responses_total`` after :func:`drive_status_mix`, recorded at
#: the commit before the counters were memoised per status.
RESPONSES_TOTAL_AT_PARENT = [
    {"type": "counter", "name": "api.responses_total",
     "labels": {"host": "api", "service": "svc", "status": "200"},
     "value": 4, "updated": 2.1519999999999997},
    {"type": "counter", "name": "api.responses_total",
     "labels": {"host": "api", "service": "svc", "status": "401"},
     "value": 2, "updated": 2.0999999999999996},
    {"type": "counter", "name": "api.responses_total",
     "labels": {"host": "api", "service": "svc", "status": "429"},
     "value": 3, "updated": 2.0999999999999996},
    {"type": "counter", "name": "api.responses_total",
     "labels": {"host": "gone", "service": "svc",
                "status": "unreachable"},
     "value": 2, "updated": 2.0},
]


def drive_status_mix():
    """200s, 401s, a 429 burst and unreachable replies, under obs."""
    sim, topology, network = make_net(obs=True)
    topology.place_host("api", "west")
    topology.place_host("gone", "north")
    accounts = AccountRegistry("svc")
    router = Router()
    router.add("GET", "/items", lambda r, a: {"messages": []},
               processing_delay_median=0.052,
               processing_delay_sigma=0.0)
    ServiceEndpoint(
        sim, network, "api", accounts, router=router,
        rate_limiter=SlidingWindowRateLimiter(
            RateLimit(max_requests=2, window=1.0), now_fn=lambda: sim.now),
    )
    token = accounts.create_account("alice").token
    good = ApiClient(network, "client", "api", token, service="svc")
    bad = ApiClient(network, "client", "api", "tok_forged", service="svc")
    lost = ApiClient(network, "client", "gone", token, service="svc")
    for now, burst in ((0.0, 3), (2.0, 4)):
        sim.run_until(now)
        for _ in range(burst):
            good.get("/items")  # two pass the limiter, the rest are 429
        bad.get("/items")
        lost.get("/items")
    sim.run_until(30.0)
    return network.obs, (good, bad, lost)


class TestResponseCounterHandles:
    def test_series_values_and_times_match_the_per_response_lookup(self):
        obs, _ = drive_status_mix()
        responses = [entry for entry in obs.metrics.snapshot()
                     if entry["name"] == "api.responses_total"]
        assert responses == RESPONSES_TOTAL_AT_PARENT

    def test_one_handle_per_status_actually_seen(self):
        obs, (good, bad, lost) = drive_status_mix()
        assert sorted(good._response_counters) == ["200", "429"]
        assert sorted(bad._response_counters) == ["401"]
        assert sorted(lost._response_counters) == ["unreachable"]
        registry = obs.metrics
        for client in (good, bad, lost):
            for status, handle in client._response_counters.items():
                assert handle is registry.counter(
                    "api.responses_total", status=status,
                    service="svc", host=client.service_host)


def make_session_world(error=None, faults=None):
    """A session against one endpoint whose read / write handlers
    answer normally, or fail every request with ``error``."""
    sim, topology, network = make_net(faults=faults)
    topology.place_host("api", "west")
    accounts = AccountRegistry("svc")
    log = ["M1", "M2", "M3"]

    def read(request, account):
        if error is not None:
            raise error
        newest_first = list(reversed(log))
        return {"messages": newest_first[:2], "next_cursor": None}

    def write(request, account):
        if error is not None:
            raise error
        log.append(request.require_param("message_id"))
        return {"id": request.param("message_id"),
                "client": request.param("client_id")}

    router = Router()
    router.add("GET", "/feed", read, processing_delay_median=0.05)
    router.add("POST", "/feed", write, processing_delay_median=0.05)
    ServiceEndpoint(sim, network, "api", accounts,
                    rng=RandomSource(SEED), router=router)
    account = accounts.create_account("alice")
    routes = SessionRoutes(api_host="api", post_path="/feed",
                           fetch_path="/feed")
    session = ServiceSession(
        ApiClient(network, "client", "api", account.token), account,
        routes)
    return sim, network, session


def session_calls(session):
    return {
        "post_message": lambda: session.post_message("M4"),
        "fetch_messages": session.fetch_messages,
    }


class TestOneCallbackSameOutcomes:
    def test_success_values(self):
        sim, _, session = make_session_world()
        results = {name: call()
                   for name, call in session_calls(session).items()}
        sim.run_until(30.0)
        assert results["post_message"].value == {"id": "M4",
                                                 "client": "client"}
        # Newest-first pages come back chronological.
        assert results["fetch_messages"].value in (("M2", "M3"),
                                                   ("M3", "M4"))
        assert isinstance(results["post_message"].value, dict)

    @pytest.mark.parametrize("error, expected", [
        (AuthenticationError("who"), AuthenticationError),
        (NotFoundError("gone"), NotFoundError),
        (InvalidRequestError("bad"), InvalidRequestError),
        (RateLimitExceededError("slow down", retry_after=1.25),
         RateLimitExceededError),
    ])
    @pytest.mark.parametrize("call", ["post_message", "fetch_messages"])
    def test_error_status_fails_with_the_typed_error(self, call, error,
                                                     expected):
        sim, _, session = make_session_world(error=error)
        future = session_calls(session)[call]()
        sim.run_until(30.0)
        assert future.failed
        assert type(future.exception) is expected
        assert str(future.exception) == str(error)
        if expected is RateLimitExceededError:
            assert future.exception.retry_after == 1.25

    @pytest.mark.parametrize("call", ["post_message", "fetch_messages"])
    def test_rpc_timeout_and_detached_host_fail_unreachable(self, call):
        faults = FaultInjector()
        faults.partition_pair("client", "api", 0.0, 60.0)
        sim, network, session = make_session_world(faults=faults)
        timed_out = session_calls(session)[call]()
        sim.run_until(9.0)
        assert not timed_out.done
        sim.run_until(30.0)
        assert type(timed_out.exception) is HostUnreachableError
        assert "timed out" in str(timed_out.exception)
        network.detach("api")
        refused = session_calls(session)[call]()
        assert refused.done  # no handler to send to: fails at once
        assert type(refused.exception) is HostUnreachableError

    def test_unwrap_keeps_its_behaviour(self):
        reply = Future()
        body = ServiceSession._unwrap(reply)
        payload = {"messages": ["M1"]}
        reply.resolve(ApiResponse(200, payload))
        assert body.value == payload and body.value is not payload
        failed = ServiceSession._unwrap(reply := Future())
        reply.resolve(ApiResponse(404, {"error": "nope"}))
        assert type(failed.exception) is NotFoundError


def blogger_world():
    sim = Simulator()
    topology = paper_topology()
    topology.place_host("probe", OREGON)
    rng = RandomSource(SEED)
    network = Network(sim, LatencyModel(topology, rng.child("net"),
                                        JitterParams(sigma=0.0)))
    network.attach("probe")
    service = BloggerService(sim, topology, network, rng.child("service"))
    session = service.create_session("alice", "probe")
    client = ApiClient(network, "probe", session.routes.api_host,
                       session.account.token)
    return sim, service, session, client


class TestNoHandlerExceptionEscapesTheEventLoop:
    @pytest.mark.parametrize("limit, status", [
        ("abc", 400),
        (None, 400),
        (0, 400),
        (-1, 400),
        (2.5, 400),
        (True, 400),
        (2, 200),
    ])
    def test_malformed_limit_is_answered_not_raised(self, limit, status):
        sim, service, session, client = blogger_world()
        for message_id in ("M1", "M2", "M3"):
            session.post_message(message_id)
            sim.run_until(sim.now + 2.0)
        raw = client.get(POST_PATH, {"limit": limit})
        sim.run_until(30.0)  # at the parent: TypeError out of _drain
        assert raw.value.status == status
        if status == 200:
            assert raw.value.body["messages"] == ["M3", "M2"]
        else:
            assert "limit" in raw.value.body["error"]
        stats = service._endpoints["blogger-api"].stats
        assert stats.requests_total == \
            sum(stats.responses_by_status.values())

    @pytest.mark.parametrize(
        "service", SERVICE_NAMES + EXTENSION_SERVICE_NAMES)
    def test_every_service_answers_a_malformed_limit(self, service):
        # quorum_kv paginates inside a future callback, not in the
        # handler call itself: the 400 has to survive that hop too.
        world = MeasurementWorld(service, seed=SEED)
        session = world.service.create_session("probe", "agent-oregon")
        client = ApiClient(world.network, "agent-oregon",
                           session.routes.api_host, session.account.token)
        session.post_message("M1")
        world.sim.run_until(5.0)
        replies = [client.get(session.routes.fetch_path, params)
                   for params in ({"limit": "abc"},
                                  {"limit": "abc", "cursor": "M1"})]
        world.sim.run_until(30.0)
        for reply in replies:
            assert reply.value.status == 400
            assert "limit" in reply.value.body["error"]

    @pytest.mark.parametrize("median", [0.0, 0.05])
    def test_handler_bug_is_a_500_on_either_path(self, median):
        def broken(request, account):
            raise RuntimeError("handler bug")

        router = Router()
        router.add("GET", "/feed", broken, processing_delay_median=median)
        sim, topology, network = make_net()
        topology.place_host("api", "west")
        accounts = AccountRegistry("svc")
        endpoint = ServiceEndpoint(sim, network, "api", accounts,
                                   rng=RandomSource(SEED), router=router)
        client = ApiClient(network, "client", "api",
                           accounts.create_account("alice").token)
        reply = client.get("/feed")
        sim.run_until(30.0)
        assert reply.value == ApiResponse(500, {"error": "handler bug"})
        assert endpoint.stats.responses_by_status == {500: 1}


class TestEndpointStatsBalance:
    def test_every_request_is_answered_exactly_once(self):
        faults = FaultInjector()
        sim, topology, network = make_net(faults=faults)
        topology.place_host("api", "west")
        accounts = AccountRegistry("svc")
        inner = Future()

        def failing_later(request, account):
            sim.schedule_after(0.3, inner.fail, RuntimeError("late"))
            return inner

        router = Router()
        router.add("GET", "/feed", lambda r, a: {"messages": []})
        router.add("POST", "/feed", lambda r, a: {"id": "M1"},
                   processing_delay_median=0.17)
        router.add("GET", "/later", failing_later)
        endpoint = ServiceEndpoint(
            sim, network, "api", accounts, rng=RandomSource(SEED),
            router=router,
            rate_limiter=SlidingWindowRateLimiter(
                RateLimit(max_requests=8, window=1.0),
                now_fn=lambda: sim.now),
        )
        token = accounts.create_account("alice").token
        client = ApiClient(network, "client", "api", token)
        forged = ApiClient(network, "client", "api", "tok_forged")

        replies = [client.get("/feed"), client.post("/feed"),
                   forged.get("/feed"), client.get("/nowhere"),
                   client.get("/later"),
                   network.rpc("client", "api", "not a request")]
        replies += [client.get("/feed") for _ in range(10)]  # 429 burst
        sim.run_until(2.0)
        # Served, but the reply is lost on the way back.
        faults.partition_pair("client", "api", 2.04, 9.0)
        lost = client.get("/feed")
        sim.run_until(60.0)

        stats = endpoint.stats
        assert all(reply.done for reply in replies)
        assert type(lost.exception) is HostUnreachableError
        assert stats.requests_total == len(replies) + 1 == 17
        assert stats.requests_total == \
            sum(stats.responses_by_status.values())
        assert stats.responses_by_status == {
            200: 7, 400: 2, 401: 1, 429: 6, 500: 1}
        assert stats.requests_by_route[("?", "?")] == 1
        assert sum(stats.requests_by_route.values()) == \
            stats.requests_total
