"""Scenario DSL overhead: load/validate throughput + gossip fleets.

Two numbers, recorded to ``BENCH_scenario.json``:

* **load throughput** — scenarios parsed *and* validated per second
  over every file in ``examples/scenarios/`` (strict validation runs
  on each load, so this is the real cost a ``--scenario`` CLI run or
  a config-reloading server pays);
* **gossip engine throughput** — simulated operations per wall-clock
  second for a gossip-archetype fleet, serial vs. 4 workers, with the
  usual hard contract that both merge to the same golden signature.
"""

import time
from pathlib import Path

from repro.fleet import FleetSpec, run_fleet
from repro.methodology import CampaignConfig
from repro.scenario import (
    forget_scenario,
    load_scenario,
    register_scenario,
)

from benchmarks.conftest import BENCH_SEED

SCENARIO_DIR = Path(__file__).parent.parent / "examples" / "scenarios"

WORKERS = 4


def fleet_operations(outcome) -> int:
    """Total simulated API operations across a fleet's campaigns."""
    total = 0
    for result in outcome.results:
        for record in result.records:
            total += sum(record.reads_per_agent.values())
            total += sum(record.writes_per_agent.values())
    return total


def test_scenario_load_and_gossip_throughput(
        benchmark, bench_json_writer):
    paths = sorted(SCENARIO_DIR.glob("*.toml"))
    assert len(paths) >= 8

    rounds = 20
    t0 = time.perf_counter()
    for _ in range(rounds):
        for path in paths:
            load_scenario(path)
    load_s = time.perf_counter() - t0
    loads_per_s = rounds * len(paths) / load_s

    num_tests = 7
    register_scenario(load_scenario(SCENARIO_DIR / "gossip_mesh.toml"),
                      replace=True)
    try:
        def spec():
            return FleetSpec(
                services=("gossip_mesh",),
                base_config=CampaignConfig(num_tests=num_tests,
                                           seed=BENCH_SEED),
                seeds=(BENCH_SEED, BENCH_SEED + 1),
            )

        t0 = time.perf_counter()
        serial = run_fleet(spec())
        serial_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        parallel = benchmark.pedantic(
            lambda: run_fleet(spec(), jobs=WORKERS),
            rounds=1, iterations=1,
        )
        parallel_s = time.perf_counter() - t0
    finally:
        forget_scenario("gossip_mesh")

    operations = fleet_operations(serial)
    serial_ops = operations / serial_s
    parallel_ops = operations / parallel_s

    print(f"\nScenario DSL ({len(paths)} files, "
          f"{num_tests} tests/type):")
    print(f"  load+validate         {loads_per_s:9.0f} scenarios/s")
    print(f"  gossip serial         {serial_ops:9.0f} ops/s "
          f"({serial_s:.2f}s)")
    print(f"  gossip jobs={WORKERS}         {parallel_ops:9.0f} ops/s "
          f"({parallel_s:.2f}s)")
    print(f"  signature             {serial.signature()[:16]}")

    path = bench_json_writer("scenario", {
        "scenario_files": len(paths),
        "loads_per_second": loads_per_s,
        "num_tests": num_tests,
        "workers": WORKERS,
        "operations": operations,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "serial_ops_per_second": serial_ops,
        "parallel_ops_per_second": parallel_ops,
        "signature": serial.signature(),
    })
    print(f"  written to {path}")

    # Hard contracts: bit-identical merge, and loading is nowhere
    # near a bottleneck (hundreds/s would already be generous).
    assert parallel.signature() == serial.signature()
    assert loads_per_s > 50
    # Soft contract, as in the fleet-scaling benchmark: fan-out
    # overhead must not be pathological on a noisy CI box.
    assert parallel_s < serial_s * 2.0
