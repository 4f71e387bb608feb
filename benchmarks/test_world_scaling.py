"""World scaling: the partitioned world vs. its serial replay.

Runs one gossip-archetype world (``examples/scenarios/
gossip_world.toml``, session count scaled by ``REPRO_BENCH_TESTS``)
serially and cut into its scenario-declared shards, records both
wall-clocks and the engine's memory discipline, and asserts the two
things that must hold **exactly**: the signatures agree byte for byte
(the world parity contract) and the stream engine never held more
than one open test however many thousand sessions were in flight (the
bounded-memory contract that makes 10^5-session campaigns reachable).

Wall-clock is reported, not gated hard: the sharded run's shards run
in one process per usable core (group 0 here, the rest in worker
processes), so ``sharded_over_serial`` depends on the machine's core
count; the interesting perf number is sessions/s throughput —
``tools/bench_check.py`` bands it against the checked-in baseline.  Beside it sits the bus alone:
``bus_messages_per_s`` is N ``send`` + ``drain_until`` on a bare
:class:`~repro.world.WorldBus`, the isolated figure a change to the
bus moves and a change to anything else does not.
"""

import time

import pytest

from repro.scenario import load_scenario
from repro.world import WorldBus, run_world, world_from_scenario

from benchmarks.conftest import BENCH_SEED, bench_num_tests

SCENARIO = "examples/scenarios/gossip_world.toml"

#: Sessions per REPRO_BENCH_TESTS unit: the default 60 benches a
#: 6,000-session world (~1s/run); the checked-in scenario itself
#: carries the paper-scale 100,000.
SESSIONS_PER_UNIT = 100


@pytest.fixture(scope="module")
def world_rows(bench_json_writer):
    """Collect each test's rows; write one JSON when the module ends."""
    rows: dict = {}
    yield rows
    print(f"\n  written to {bench_json_writer('world', rows)}")


def bus_traffic(count=50_000, per_barrier=1_000, epoch=10.0):
    """``count`` messages over 8 replicas, a barrier every
    ``per_barrier`` sends, latencies spread over ~3 epochs so every
    barrier drains part of a standing backlog — the world's shape."""
    bus = WorldBus(epoch)
    now, drained = 0.0, 0
    for index in range(count):
        origin = index & 7
        bus.send(origin=origin, target=(origin + 1 + index % 7) & 7,
                 send_time=now,
                 latency=epoch + (index * 7919 % 1009) / 50.0,
                 kind="rumor", payload=("c0", "m0"))
        if index % per_barrier == per_barrier - 1:
            now += epoch
            drained += len(bus.drain_until(now))
    return drained + len(bus.drain_until(float("inf"))), bus


def test_bus_throughput(benchmark, world_rows):
    t0 = time.perf_counter()
    drained, bus = benchmark.pedantic(bus_traffic,
                                      rounds=1, iterations=1)
    elapsed = time.perf_counter() - t0
    world_rows["bus_messages_per_s"] = drained / elapsed
    print(f"\nBare bus: {drained / elapsed:,.0f} messages/s")
    assert drained == bus.sent_total == 50_000
    assert bus.pending_count == 0


def test_sharded_world_matches_serial_at_scale(benchmark, world_rows):
    scenario = load_scenario(SCENARIO)
    sessions = bench_num_tests() * SESSIONS_PER_UNIT
    sharded_spec = world_from_scenario(scenario, sessions=sessions)
    serial_spec = world_from_scenario(scenario, sessions=sessions,
                                      shards=1)

    t0 = time.perf_counter()
    serial = run_world(serial_spec, seed=BENCH_SEED)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    sharded = benchmark.pedantic(
        lambda: run_world(sharded_spec, seed=BENCH_SEED),
        rounds=1, iterations=1,
    )
    sharded_s = time.perf_counter() - t0

    ratio = sharded_s / serial_s
    per_s = sessions / sharded_s
    print(f"\nWorld scaling ({sessions} sessions, "
          f"{sharded.replicas} replicas):")
    print(f"  serial (shards=1)     {serial_s:7.2f}s")
    print(f"  sharded (shards={sharded.shards})    {sharded_s:7.2f}s  "
          f"({ratio:.2f}x serial, {per_s:,.0f} sessions/s)")
    print(f"  peak open state       {sharded.peak_open_state} entries")
    print(f"  max stream state      {sharded.max_stream_state} test(s)")
    print(f"  signature             {serial.signature[:16]}")

    world_rows.update({
        "sessions": sessions,
        "replicas": sharded.replicas,
        "shards": sharded.shards,
        "tests": sharded.tests,
        "ops": sharded.ops,
        "bus_messages": sharded.bus_messages,
        "max_stream_state": sharded.max_stream_state,
        "peak_open_state": sharded.peak_open_state,
        "signature": sharded.signature,
        "serial_seconds": serial_s,
        "sharded_seconds": sharded_s,
        "sharded_over_serial": ratio,
        "sessions_per_s": per_s,
    })

    # The hard contracts: byte-identity across the cut, and bounded
    # streaming memory whatever the session population.
    assert sharded.signature == serial.signature
    assert sharded.anomalies == serial.anomalies
    assert sharded.max_stream_state == 1
    assert serial.max_stream_state == 1
