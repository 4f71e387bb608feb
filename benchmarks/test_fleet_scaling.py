"""Fleet scaling: parallel wall-clock vs. serial, at equal output.

Runs the same replicate fleet serially and on two worker processes,
records both wall-clocks, and asserts the one thing that must hold
**exactly** — the golden-signature digests agree — plus a deliberately
soft performance bound.  Shards are independent campaigns, so the
parallel run should approach serial/2 on an idle 2-core machine, but
CI boxes are noisy and fork/IPC overhead dominates tiny campaigns:
the hard assertion is only that parallelism is not pathological
(slower than 2x serial).  The printed ratio is the number to watch.
"""

import time

from repro.fleet import FleetSpec, run_fleet
from repro.methodology import CampaignConfig

from benchmarks.conftest import BENCH_SEED

WORKERS = 2


def test_two_worker_fleet_matches_serial_wall_clock(
        benchmark, bench_json_writer):
    num_tests = 15
    spec = FleetSpec(
        services=("blogger", "googleplus"),
        base_config=CampaignConfig(num_tests=num_tests,
                                   seed=BENCH_SEED,
                                   test_types=("test1",)),
        seeds=(BENCH_SEED, BENCH_SEED + 1),
    )

    t0 = time.perf_counter()
    serial = run_fleet(spec)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = benchmark.pedantic(
        lambda: run_fleet(spec, jobs=WORKERS),
        rounds=1, iterations=1,
    )
    parallel_s = time.perf_counter() - t0

    ratio = parallel_s / serial_s
    print(f"\nFleet scaling ({spec.total_shards} shards, "
          f"{num_tests} tests/type):")
    print(f"  serial (jobs=1)       {serial_s:7.2f}s")
    print(f"  parallel (jobs={WORKERS})     {parallel_s:7.2f}s  "
          f"({ratio:.2f}x serial)")
    print(f"  signature             {serial.signature()[:16]}")

    path = bench_json_writer("fleet_scaling", {
        "shards": spec.total_shards,
        "num_tests": num_tests,
        "workers": WORKERS,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "parallel_over_serial": ratio,
        "signature": serial.signature(),
    })
    print(f"  written to {path}")

    # The hard contract: identical merged output, bit for bit.
    assert parallel.signature() == serial.signature()
    assert parallel.retries == 0
    # The soft contract: fan-out must not be pathological.  True
    # speedup depends on idle cores; overhead must stay bounded.
    assert parallel_s < serial_s * 2.0, (
        f"2-worker fleet took {ratio:.2f}x serial"
    )
