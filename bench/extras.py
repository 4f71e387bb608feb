"""Measurements a traced run makes beside the span tree.

Each is a ratio of two untraced wall times on the same inputs (given
with its base in the name: ``a_over_b`` is seconds of *a* divided by
seconds of *b*), or a public function timed on the unit's own output.
Only the workloads whose path holds the layer pay for them.
"""

from __future__ import annotations

import os
import shutil
import time

from repro.fleet import FleetSpec, derive_fleet_seeds, run_fleet
from repro.methodology import CampaignConfig, analyze_trace
from repro.obs import merge_obs_snapshots
from repro.world import run_world

from bench.spec import OUT
from bench.workloads import WORKLOADS, archive_traces

__all__ = ["measure"]

_REPEATS = 2


def _best(function, *args) -> float:
    """Fastest of a couple of calls, seconds."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        function(*args)
        best = min(best, time.perf_counter() - start)
    return best


def _relations_over_plain(archive) -> float:
    """``analyze_trace`` with all five metrics / without any."""
    tally = {"ops": 0, "bytes": 0}
    traces = [trace for job in archive.jobs
              for trace in archive_traces(archive, job, tally)]

    def analyze(metrics: tuple) -> None:
        for trace in traces:
            analyze_trace(trace, metrics=metrics)

    return _best(analyze, archive.metrics) / _best(analyze, ())


def _pool_over_serial(seed: int, sizes: dict) -> float:
    """A fixed 4-shard fleet at ``jobs=nproc`` / at ``jobs=1``.

    Informational: a two-process run on a two-core sandbox spreads by
    a quarter between identical runs, so nothing is bounded on it.
    """
    spec = FleetSpec(
        services=("blogger",),
        base_config=CampaignConfig(num_tests=2 * sizes["replay_tests"]),
        seeds=derive_fleet_seeds(seed, 4),
    )
    scratch = OUT / "work" / f"pool-{seed}"

    def run(jobs: int) -> None:
        shutil.rmtree(scratch, ignore_errors=True)
        run_fleet(spec, jobs=jobs, out_dir=scratch)

    try:
        return (_best(run, os.cpu_count() or 1) / _best(run, 1))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(workload: str, state, result, seed: int, sizes: dict,
            untraced_wall_s: float, scale: float) -> dict[str, float]:
    """The extra measurements ``workload``'s layers call for.

    ``untraced_wall_s`` is the unit's untraced wall and ``scale`` the
    factor to reference machine speed, both measured just before.
    """
    if workload.startswith("campaign_"):
        snapshot = result.public["obs"]
        return {"obs_merge_s": scale * _best(merge_obs_snapshots,
                                             [snapshot, snapshot])}
    if workload == "replay_batch":
        return {
            "relations_over_plain": _relations_over_plain(state),
            "fleet_pool_over_serial": _pool_over_serial(seed, sizes),
        }
    if workload == "replay_stream":
        batch = scale * _best(WORKLOADS["replay_batch"].unit, state)
        return {
            "stream_over_batch": untraced_wall_s / batch,
            "fleet_pool_over_serial": _pool_over_serial(seed, sizes),
        }
    spec, world_seed = state
    serial = scale * _best(run_world, spec.with_topology(1), world_seed)
    return {"world_sharded_over_serial": untraced_wall_s / serial}
