"""Substrate performance: the discrete-event kernel and a full test.

Not a paper figure — a contributor-facing benchmark establishing the
simulator's cost model: raw event throughput, process context-switch
cost, the price of one RPC over the instrumented network, the price
of one full API read (session, client, network, endpoint pipeline and
back), and the wall-clock price of one complete Test 1 instance (the
unit everything else scales by).  Regressions here multiply directly
into campaign times.  The family's rates land in
``BENCH_simulator_throughput.json`` so CI can track the trajectory.
"""

import time

import pytest

from repro.methodology import PAPER_PLANS, MeasurementWorld, run_test1
from repro.net import (
    OREGON,
    VIRGINIA,
    JitterParams,
    LatencyModel,
    Network,
    paper_topology,
)
from repro.obs import ObsContext
from repro.services.base import ServiceSession, SessionRoutes
from repro.sim import RandomSource, Simulator, spawn
from repro.webapi import (
    AccountRegistry,
    ApiClient,
    RateLimit,
    Router,
    ServiceEndpoint,
    SlidingWindowRateLimiter,
)

from benchmarks.conftest import BENCH_SEED


@pytest.fixture(scope="module")
def sim_rates(bench_json_writer):
    """Collect each test's rate; write one JSON when the module ends."""
    rates: dict[str, float] = {}
    yield rates
    bench_json_writer("simulator_throughput", rates)


def drain_events(count=20_000):
    sim = Simulator()
    remaining = [count]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule_after(0.001, tick)

    sim.schedule_after(0.0, tick)
    sim.run()
    return sim.events_processed


def test_event_loop_throughput(benchmark, sim_rates):
    t0 = time.perf_counter()
    processed = benchmark.pedantic(drain_events, rounds=1, iterations=1)
    elapsed = time.perf_counter() - t0
    sim_rates["events_per_second"] = processed / elapsed
    assert processed == 20_000


def ping_pong_processes(rounds=2_000):
    sim = Simulator()

    def worker():
        for _ in range(rounds):
            yield 0.001

    process = spawn(sim, worker)
    sim.run()
    return process


def test_process_switch_throughput(benchmark, sim_rates):
    t0 = time.perf_counter()
    process = benchmark.pedantic(ping_pong_processes,
                                 rounds=1, iterations=1)
    elapsed = time.perf_counter() - t0
    sim_rates["process_switches_per_second"] = 2_000 / elapsed
    assert not process.alive


def echo_rpcs(count=5_000):
    """Echo RPCs with an ``ObsContext`` attached, as every campaign
    runs: the per-link counter is part of what an RPC costs."""
    sim = Simulator()
    topology = paper_topology()
    topology.place_host("client", OREGON)
    topology.place_host("server", VIRGINIA)
    network = Network(
        sim,
        LatencyModel(topology, RandomSource(BENCH_SEED).child("net"),
                     JitterParams()),
        obs=ObsContext(now_fn=lambda: sim.now),
    )
    network.attach("client")
    network.attach("server", rpc_handler=lambda payload, src: payload)
    replies = [network.rpc("client", "server", index)
               for index in range(count)]
    sim.run()
    return replies


def test_rpc_throughput(benchmark, sim_rates):
    t0 = time.perf_counter()
    replies = benchmark.pedantic(echo_rpcs, rounds=1, iterations=1)
    elapsed = time.perf_counter() - t0
    sim_rates["rpcs_per_second"] = len(replies) / elapsed
    assert [reply.value for reply in replies] == list(range(5_000))


def api_reads(count=5_000):
    """Full API reads, one per virtual millisecond: ``fetch_messages``
    against a one-route endpoint with accounts, a rate limiter that
    never trips and a sampled processing delay — with an ``ObsContext``
    attached, as every campaign runs, so the client's counters and the
    whole reply chain are part of what a request costs."""
    sim = Simulator()
    topology = paper_topology()
    topology.place_host("client", OREGON)
    topology.place_host("api", VIRGINIA)
    rng = RandomSource(BENCH_SEED)
    network = Network(
        sim, LatencyModel(topology, rng.child("net"), JitterParams()),
        obs=ObsContext(now_fn=lambda: sim.now),
    )
    network.attach("client")
    accounts = AccountRegistry("bench")
    router = Router()
    router.add("GET", "/feed",
               lambda request, account: {"messages": ["M2", "M1"],
                                         "next_cursor": None},
               processing_delay_median=0.04)
    ServiceEndpoint(
        sim, network, "api", accounts,
        rate_limiter=SlidingWindowRateLimiter(
            RateLimit(max_requests=2_000, window=1.0),
            now_fn=lambda: sim.now),
        rng=rng.child("endpoint"), router=router,
    )
    account = accounts.create_account("reader")
    session = ServiceSession(
        ApiClient(network, "client", "api", account.token,
                  service="bench"),
        account, SessionRoutes("api", "/feed", "/feed"),
    )
    reads = []

    def issue():
        reads.append(session.fetch_messages())

    for index in range(count):
        sim.schedule_at(index * 0.001, issue)
    sim.run()
    return reads


def test_api_request_throughput(benchmark, sim_rates):
    t0 = time.perf_counter()
    reads = benchmark.pedantic(api_reads, rounds=1, iterations=1)
    elapsed = time.perf_counter() - t0
    sim_rates["requests_per_second"] = len(reads) / elapsed
    assert [read.value for read in reads] == [("M1", "M2")] * 5_000


def one_test1_instance():
    world = MeasurementWorld("blogger", seed=BENCH_SEED)
    process = spawn(world.sim, run_test1, world, "bench",
                    PAPER_PLANS["blogger"].test1)
    while not process.completion.done:
        world.sim.run_until(world.sim.now + 60.0)
    return process.completion.value


def test_full_test1_instance_cost(benchmark, sim_rates):
    t0 = time.perf_counter()
    trace = benchmark.pedantic(one_test1_instance,
                               rounds=1, iterations=1)
    elapsed = time.perf_counter() - t0
    sim_rates["test1_instance_seconds"] = elapsed
    assert len(trace.writes()) == 6
