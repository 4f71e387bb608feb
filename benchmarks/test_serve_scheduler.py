"""Serve scheduler: work stealing vs. sequential on a skewed mix.

The campaign service's reason for scheduling *across* hunts is the
skewed workload the paper's own measurement had: one long campaign
next to several short ones.  Draining hunts one ``run_hunts`` call at
a time (the sequential baseline) leaves a worker idle at every short
hunt's barrier; one call over all of them keeps all workers busy until
the global queue is empty.

This benchmark isolates scheduling cost from campaign cost with a
fixed-sleep shard runner (each shard "computes" for SHARD_SLEEP
seconds), runs the canonical skewed mix — one 7-shard hunt plus three
1-shard hunts — three ways (inline 1-worker, 2-worker sequential,
2-worker stealing), and records shards/sec for each.

The arithmetic the assertion rests on, for hunts [7, 1, 1, 1] on two
workers at unit shard cost: sequential needs ceil(7/2) + 3 = 7 rounds
(each 1-shard hunt leaves a worker idle), stealing needs
ceil(10/2) = 5 — a 1.4x gap that survives fork overhead.  The hard
contract: every hunt completes either way, and stealing beats
sequential on wall-clock.
"""

import time

from repro.fleet import FleetSpec
from repro.methodology import CampaignConfig
from repro.methodology.runner import CampaignResult
from repro.serve import HuntRun, run_hunts

from benchmarks.conftest import BENCH_SEED

WORKERS = 2
#: Simulated per-shard compute cost (seconds of wall clock).
SHARD_SLEEP = 0.15
#: Shards per hunt: the canonical skewed mix.
HUNT_SHAPE = (7, 1, 1, 1)


def sleep_shard_runner(job):
    """A shard that costs fixed wall-clock and returns no records."""
    time.sleep(SHARD_SLEEP)
    return CampaignResult(service=job.service, config=job.config)


def make_runs():
    """Fresh HuntRuns for the skewed mix (no artifact stores)."""
    runs = []
    for index, shards in enumerate(HUNT_SHAPE):
        spec = FleetSpec(
            services=("blogger",),
            base_config=CampaignConfig(num_tests=1, seed=BENCH_SEED,
                                       test_types=("test1",)),
            seeds=tuple(range(BENCH_SEED, BENCH_SEED + shards)),
        )
        runs.append(HuntRun(hunt_id=f"h{index:04d}",
                            jobs=tuple(spec.jobs())))
    return runs


def drain(workers, batches):
    """Run the mix as ``batches`` (lists of runs), one call each."""
    t0 = time.perf_counter()
    outcomes = [outcome for batch in batches
                for outcome in run_hunts(
                    batch, workers=workers,
                    shard_runner=sleep_shard_runner)]
    return outcomes, time.perf_counter() - t0


def test_stealing_beats_sequential_on_skewed_hunts(
        benchmark, bench_json_writer):
    total = sum(HUNT_SHAPE)

    inline_outcomes, inline_s = drain(1, [make_runs()])
    # One hunt per call: each call's end is the per-hunt barrier.
    sequential_outcomes, sequential_s = drain(
        WORKERS, [[run] for run in make_runs()])

    t0 = time.perf_counter()
    stealing_outcomes = benchmark.pedantic(
        lambda: run_hunts(make_runs(), workers=WORKERS,
                          shard_runner=sleep_shard_runner),
        rounds=1, iterations=1,
    )
    stealing_s = time.perf_counter() - t0

    gain = sequential_s / stealing_s
    print(f"\nServe scheduler ({len(HUNT_SHAPE)} hunts, "
          f"{total} shards, {SHARD_SLEEP:.2f}s/shard):")
    print(f"  inline (1 worker)        {inline_s:6.2f}s  "
          f"({total / inline_s:5.1f} shards/s)")
    print(f"  sequential ({WORKERS} workers)   {sequential_s:6.2f}s  "
          f"({total / sequential_s:5.1f} shards/s)")
    print(f"  stealing ({WORKERS} workers)     {stealing_s:6.2f}s  "
          f"({total / stealing_s:5.1f} shards/s, "
          f"{gain:.2f}x sequential)")

    path = bench_json_writer("serve", {
        "hunts": list(HUNT_SHAPE),
        "shards_total": total,
        "workers": WORKERS,
        "shard_cost": SHARD_SLEEP,
        "inline_statuses": sorted(
            outcome.status for outcome in inline_outcomes),
        "sequential_statuses": sorted(
            outcome.status for outcome in sequential_outcomes),
        "stealing_statuses": sorted(
            outcome.status for outcome in stealing_outcomes),
        "inline_seconds": inline_s,
        "sequential_seconds": sequential_s,
        "stealing_seconds": stealing_s,
        "inline_shards_per_s": total / inline_s,
        "sequential_shards_per_s": total / sequential_s,
        "stealing_shards_per_s": total / stealing_s,
        "sequential_over_stealing": gain,
    })
    print(f"  written to {path}")

    # The hard contract: every hunt completes either way.
    for outcomes in (inline_outcomes, sequential_outcomes,
                     stealing_outcomes):
        assert [outcome.status for outcome in outcomes] == \
            ["done"] * len(HUNT_SHAPE)
        assert sum(len(outcome.results)
                   for outcome in outcomes) == total
    # The scheduling claim: on the skewed mix, stealing is measurably
    # faster than the per-hunt barrier (theoretical gap 7/5 = 1.4x).
    assert stealing_s < sequential_s, (
        f"stealing ({stealing_s:.2f}s) did not beat sequential "
        f"({sequential_s:.2f}s) on the skewed mix"
    )
    # And the pool beats a single worker outright.
    assert stealing_s < inline_s
