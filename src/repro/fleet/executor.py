"""Deterministic parallel campaign execution.

:func:`run_fleet` executes every shard of a
:class:`~repro.fleet.spec.FleetSpec` and merges the results back into
the spec's expansion order.  Three properties make the merged output
bit-identical to running the same campaigns serially:

1. **Shard purity** — a shard is ``run_campaign(service, config)``
   with a fully resolved config; it builds its own simulator world
   from its own seed and shares no state with other shards.
2. **Value transport** — workers return records through the compact
   JSON encoding of :mod:`repro.io`, whose round trip is exact for
   everything the analysis pipeline consumes.
3. **Ordered merge** — results are keyed by shard index, so worker
   scheduling (and retries after crashes or timeouts) can reorder
   *execution* but never *output*.

This module is dispatch policy and result handling only: one FIFO
queue in spec order, ``jobs`` attempts in flight, the first
unrecoverable shard raises :class:`~repro.errors.FleetError`.  How a
shard runs — in-process for ``jobs=1`` (no serialization at all, the
exact historical ``replicate``/``sweep`` code path), in a worker
process for ``jobs>=2`` — and how a crashed, timed-out or failed
attempt is classified belong to :mod:`repro.fleet.pool`, shared with
the campaign service's scheduler (``docs/fleet.md``, "Failure
policy").

With an output directory, completed shards are persisted through the
:class:`~repro.fleet.store.ArtifactStore` as they finish, and a
re-invocation against the same directory skips every shard whose
stored records are digest-valid — checkpoint/resume for free.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.errors import ConfigurationError, FleetError
from repro.fleet.digest import fleet_signature
from repro.fleet.pool import (
    Attempt,
    ShardRunner,
    ShardTask,
    WorkPool,
    records_to_jsonable,
    result_from_records,
    run_shard,
)
from repro.fleet.spec import FleetSpec, ShardJob
from repro.fleet.store import ArtifactStore
from repro.methodology.runner import CampaignResult
from repro.obs.events import (
    EventCallback,
    FleetCompleted,
    FleetStarted,
    ShardCompleted,
    ShardRetried,
    ShardSkipped,
    ShardStarted,
    ShardTestChecked,
)

__all__ = ["run_fleet", "execute_shard", "FleetOutcome",
           "ShardRunner", "DEFAULT_MAX_RETRIES"]

#: Extra attempts granted to a shard after a worker crash or timeout.
DEFAULT_MAX_RETRIES = 2


def execute_shard(job: ShardJob) -> CampaignResult:
    """Run one shard: a full campaign, pure in ``(service, config)``."""
    from repro.methodology.runner import run_campaign

    return run_campaign(job.service, job.config)


@dataclass
class FleetOutcome:
    """Everything one fleet run produced, in spec merge order."""

    spec: FleetSpec
    #: The expanded jobs, aligned index-for-index with ``results``.
    jobs: tuple[ShardJob, ...]
    results: list[CampaignResult] = field(default_factory=list)
    #: Shard ids restored from the artifact store instead of executed.
    skipped: tuple[str, ...] = ()
    executed: tuple[str, ...] = ()
    retries: int = 0

    def signature(self) -> str:
        """The golden-signature digest of the merged results."""
        return fleet_signature(self.results)

    def merged_obs(self) -> dict | None:
        """All shards' obs snapshots merged in spec order.

        Counter and histogram entries sum across shards; spans
        concatenate shard-by-shard.  Because the merge visits shards
        in spec order, the result is independent of worker scheduling
        — and for a single shard it is the shard's snapshot verbatim,
        which is what makes fleet exports byte-comparable with serial
        runs.  Returns None if any shard is missing its snapshot
        (e.g. resumed from a store written before obs existed).
        """
        from repro.obs import merge_obs_snapshots

        snapshots = [result.obs for result in self.results]
        if any(snapshot is None for snapshot in snapshots):
            return None
        return merge_obs_snapshots(snapshots)

    def by_service(self) -> dict[str, list[CampaignResult]]:
        """Results grouped by service, preserving merge order."""
        grouped: dict[str, list[CampaignResult]] = {}
        for job, result in zip(self.jobs, self.results):
            grouped.setdefault(job.service, []).append(result)
        return grouped


def run_fleet(spec: FleetSpec, *,
              jobs: int = 1,
              out_dir: str | Path | None = None,
              on_event: EventCallback | None = None,
              shard_timeout: float | None = None,
              max_retries: int = DEFAULT_MAX_RETRIES,
              shard_runner: ShardRunner | None = None,
              stream: bool = False) -> FleetOutcome:
    """Execute every shard of ``spec`` and merge in spec order.

    Parameters
    ----------
    jobs:
        Worker processes.  1 (default) executes in-process, exactly
        like the historical serial path; >= 2 uses a worker pool.
    out_dir:
        Artifact-store directory.  Enables persistence and resume:
        digest-valid completed shards found there are loaded instead
        of re-run, and newly completed shards are written back as
        they finish.
    on_event:
        Telemetry callback receiving :mod:`repro.obs.events` events.
    shard_timeout:
        Wall-clock seconds one shard attempt may run (workers only);
        a timed-out worker is terminated and the shard retried.
    max_retries:
        Extra attempts per shard after worker crashes/timeouts.
    shard_runner:
        Override of :func:`execute_shard`; must be a module-level
        callable when ``jobs >= 2`` (it crosses the process boundary).
    stream:
        Use the online detection fast path
        (:func:`repro.stream.fleet.run_stream_shard`): each shard's
        records come from the streaming engine instead of the batch
        re-check (bit-identical by the parity contract), every test
        closure is reported incrementally as a
        :class:`~repro.obs.events.ShardTestChecked` event — piped
        from workers while shards are still running — and, with an
        output directory, each shard's operation stream is archived to
        ``traces/<shard_id>.ops.jsonl`` for ``stream --from-trace``.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    if max_retries < 0:
        raise ConfigurationError("max_retries must be >= 0")
    if stream and shard_runner is not None:
        raise ConfigurationError(
            "stream=True supplies its own shard runner; pass one or "
            "the other"
        )
    if jobs > 1 and spec.base_config.keep_traces:
        raise ConfigurationError(
            "keep_traces is incompatible with parallel execution: "
            "full traces are a debugging aid and do not cross the "
            "worker boundary (run with jobs=1 to keep them)"
        )
    runner = shard_runner or execute_shard
    emit = on_event or (lambda event: None)

    store: ArtifactStore | None = None
    if out_dir is not None:
        store = ArtifactStore(out_dir)
        store.initialize(spec)

    all_jobs = spec.jobs()
    total = len(all_jobs)
    results: dict[int, CampaignResult] = {}
    skipped: list[str] = []
    pending: list[ShardJob] = []
    for job in all_jobs:
        if store is not None and \
                store.shard_state(job.shard_id) == "complete":
            results[job.index] = result_from_records(
                job, store.load_shard_records(job.shard_id),
                obs=store.load_shard_obs(job.shard_id),
            )
            skipped.append(job.shard_id)
        else:
            pending.append(job)

    def announce(cls, job: ShardJob, **extra) -> None:
        emit(cls(shard_id=job.shard_id, index=job.index, total=total,
                 service=job.service, seed=job.seed, label=job.label,
                 **extra))

    emit(FleetStarted(total_shards=total, jobs=jobs,
                      resumed=len(skipped)))
    skipped_ids = set(skipped)
    for job in all_jobs:
        if job.shard_id in skipped_ids:
            announce(ShardSkipped, job, reason="complete in store")

    def test_checked(task: ShardTask, _tag, message: dict) -> None:
        announce(ShardTestChecked, task.job, **message)

    def complete(task: ShardTask, result: CampaignResult,
                 records: list[dict] | None = None) -> None:
        if store is not None:
            store.write_shard(
                task.job, records if records is not None
                else records_to_jsonable(result),
                obs=result.obs,
            )
        results[task.job.index] = result
        announce(ShardCompleted, task.job, attempts=task.attempt,
                 records=len(result.records))

    queue: deque[ShardTask] = deque()
    for job in pending:
        if stream:
            trace_path = (str(store.trace_path(job.shard_id))
                          if store is not None else None)
            queue.append(ShardTask(job, trace_path=trace_path))
        else:
            queue.append(ShardTask(job, runner=runner))

    retries = 0

    def settle(done: Attempt) -> None:
        nonlocal retries
        task = done.task
        if done.kind == "result":
            complete(task, done.result, done.records)
        elif done.kind == "error":
            raise FleetError(f"shard {task.job.shard_id!r} campaign "
                             f"failed:\n{done.detail}")
        elif task.attempt > max_retries:
            raise FleetError(f"shard {task.job.shard_id!r} failed after "
                             f"{task.attempt} attempts: {done.detail}")
        else:
            retries += 1
            retry = replace(task, attempt=task.attempt + 1)
            announce(ShardRetried, task.job, attempt=retry.attempt,
                     reason=done.detail)
            queue.appendleft(retry)

    if jobs == 1:
        for task in queue:
            announce(ShardStarted, task.job, attempt=1)
            complete(task, run_shard(task, test_checked))
    else:
        with WorkPool(test_checked, timeout=shard_timeout) as pool:
            while queue or pool.in_flight:
                while queue and pool.in_flight < jobs:
                    task = queue.popleft()
                    pool.submit(task)
                    announce(ShardStarted, task.job,
                             attempt=task.attempt)
                for done in pool.wait():
                    settle(done)

    merged = [results[job.index] for job in all_jobs]
    executed = tuple(job.shard_id for job in pending)
    emit(FleetCompleted(executed=len(executed), skipped=len(skipped),
                        retries=retries))
    return FleetOutcome(
        spec=spec, jobs=tuple(all_jobs), results=merged,
        skipped=tuple(skipped), executed=executed, retries=retries,
    )
