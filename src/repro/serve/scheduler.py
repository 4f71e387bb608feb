"""Concurrent hunts over the one dispatch loop.

A campaign service has many hunts in flight at once, with skewed shard
counts, and draining them one after another leaves most of the pool
idle every time a small hunt reaches its barrier.  So :func:`run_hunts`
hands all of them to :func:`repro.fleet.executor.dispatch_runs` in one
call: a worker keeps drawing from the hunt it last served and, when
that runs dry, **steals** from the hunt with the largest backlog
(``BENCH_serve.json`` measures the gain on a skewed mix).

Resume, persistence, retries, control polling and the ``Shard*``
events are the loop's, so a hunt executed here is byte-identical to
the same spec under ``run_fleet`` (``tools/gates.py serve``) and
reports through the same events, each naming its ``hunt_id``.  This
module adds only that each closed test of a streaming hunt carries its
:func:`window_verdicts`, and that a halted run becomes a
:class:`HuntOutcome` — an unrecoverable shard fails its own hunt only.

This is the serving shell: it runs on the host, outside any
simulation; the host time it leans on (the pool's shard deadlines,
waived line by line under ``repro.lint`` DET002) affects only when a
shard executes, never what it computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.fleet.digest import fleet_signature
from repro.fleet.executor import ShardRun, ShardRunner, dispatch_runs
from repro.methodology.records import CampaignResult
from repro.obs.events import EventCallback

__all__ = ["HuntOutcome", "run_hunts"]


@dataclass(frozen=True)
class HuntOutcome:
    """Where one hunt ended up after a scheduling pass."""

    hunt_id: str
    #: "done" | "paused" | "cancelled" | "failed"
    status: str
    #: Results in spec merge order; complete only when status=="done".
    results: tuple[CampaignResult, ...] = ()
    skipped: tuple[str, ...] = ()
    retries: int = 0
    error: str | None = None

    def signature(self) -> str | None:
        """The merged golden signature (done hunts only)."""
        if self.status != "done":
            return None
        return fleet_signature(list(self.results))


def _outcome(run: ShardRun) -> HuntOutcome:
    if run.halt is None:
        return HuntOutcome(
            run.hunt_id, "done", skipped=run.skipped,
            retries=run.retries,
            results=tuple(run.results[job.index] for job in run.jobs),
        )
    if run.halt in ("paused", "cancelled"):
        return HuntOutcome(run.hunt_id, run.halt, skipped=run.skipped,
                           retries=run.retries)
    return HuntOutcome(run.hunt_id, "failed", skipped=run.skipped,
                       retries=run.retries, error=run.halt)


def window_verdicts(record) -> dict[str, dict[str, list[dict]]]:
    """One test record's divergence windows, JSON-safe.

    The per-pair verdicts a follow-mode consumer of the event feed
    acts on: which agent pairs diverged, over which intervals, and
    whether they reconverged before the test closed.  Computed where
    the shard runs and carried to the host as the ``windows`` field of
    each :class:`~repro.obs.events.ShardTestChecked`.
    """
    def encode(windows) -> list[dict]:
        return [
            {"pair": list(result.pair),
             "intervals": [[start, end]
                           for start, end in result.intervals],
             "converged": result.converged}
            for _pair, result in sorted(windows.items())
        ]
    return {"windows": {"content": encode(record.content_windows),
                        "order": encode(record.order_windows)}}


def run_hunts(runs: list[ShardRun], *,
              workers: int = 1,
              shard_runner: ShardRunner | None = None,
              shard_timeout: float | None = None,
              control: Callable[[str], str] | None = None,
              on_event: EventCallback | None = None
              ) -> list[HuntOutcome]:
    """Drain every hunt's shards (one run per hunt, named by its
    ``hunt_id``) over one worker pool.

    Parameters
    ----------
    workers:
        Pool width.  1 executes in-process (no worker processes), the
        serial reference path; >= 2 is process-per-shard.
    shard_runner:
        Override of :func:`~repro.fleet.executor.execute_shard`
        (crash-injection in tests, sleep shards in benchmarks).
    shard_timeout:
        Wall-clock budget per shard attempt (workers >= 2 only).
    control:
        ``hunt_id -> "run" | "pause" | "cancel"``, polled between
        dispatches — the API's pause/cancel reach a running pass here.
        Pausing parks the hunt's queued shards (in-flight shards
        finish and persist); cancelling discards them.
    on_event:
        Receives the loop's ``Shard*`` events
        (:func:`~repro.fleet.executor.dispatch_runs`).
    """
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    dispatch_runs(
        runs, workers=workers, shard_runner=shard_runner,
        shard_timeout=shard_timeout, on_event=on_event,
        verdicts=window_verdicts,
        control=control and (lambda run: control(run.hunt_id)),
    )
    return [_outcome(run) for run in runs]
