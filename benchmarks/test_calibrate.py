"""Calibration trial-evaluation throughput: serial vs. parallel.

One search rung is one fleet — per-candidate campaigns fan out across
worker processes — so trial evaluation should scale like the fleet
engine does.  This benchmark times the same candidate batch at jobs=1
and jobs=2, asserts the hard contract (identical trials either way)
plus the soft one (parallel fan-out is not pathological), and writes
``BENCH_calibrate.json`` with the trials/sec at each worker count.
"""

import time

from repro.calibrate import (
    FleetEvaluator,
    default_objective,
    default_space,
)
from repro.methodology import CampaignConfig

from benchmarks.conftest import BENCH_SEED

WORKERS = 2


def test_trial_evaluation_throughput(benchmark, bench_json_writer):
    num_tests = 15
    space = default_space("blogger")
    candidates = list(enumerate(space.assignments()))
    base_config = CampaignConfig(seed=BENCH_SEED,
                                 test_types=("test1",))
    objective = default_objective("blogger")

    def evaluate(jobs):
        evaluator = FleetEvaluator(space=space, objective=objective,
                                   base_config=base_config, jobs=jobs)
        return evaluator(0, num_tests, candidates)

    t0 = time.perf_counter()
    serial_trials = evaluate(1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel_trials = benchmark.pedantic(
        lambda: evaluate(WORKERS), rounds=1, iterations=1,
    )
    parallel_s = time.perf_counter() - t0

    per_sec = {1: len(candidates) / serial_s,
               WORKERS: len(candidates) / parallel_s}
    print(f"\nTrial evaluation ({len(candidates)} candidates, "
          f"{num_tests} tests/type):")
    for jobs, seconds in ((1, serial_s), (WORKERS, parallel_s)):
        print(f"  jobs={jobs}   {seconds:7.2f}s  "
              f"{per_sec[jobs]:6.2f} trials/s")

    path = bench_json_writer("calibrate", {
        "service": space.service,
        "candidates": len(candidates),
        "num_tests": num_tests,
        "trials_per_second": {str(jobs): rate
                              for jobs, rate in per_sec.items()},
        "speedup": serial_s / parallel_s,
    })
    print(f"  written to {path}")

    # Hard contract: worker count never changes the trials.
    assert parallel_trials == serial_trials
    # Soft contract: fan-out must not be pathological.
    assert parallel_s < serial_s * 2.0, (
        f"{WORKERS}-worker evaluation took "
        f"{parallel_s / serial_s:.2f}x serial"
    )
