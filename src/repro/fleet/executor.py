"""Deterministic parallel campaign execution: the one dispatch loop.

Every shard in this repository is dispatched by :func:`dispatch_runs`,
and three properties make its merged output bit-identical to running
the same campaigns serially:

1. **Shard purity** — a shard is ``run_campaign(service, config)``
   with a fully resolved config; it builds its own simulator world
   from its own seed and shares no state with other shards.
2. **Value transport** — workers return records through the compact
   JSON encoding of :mod:`repro.io`, whose round trip is exact for
   everything the analysis pipeline consumes.
3. **Ordered merge** — results are keyed by shard index, so worker
   scheduling (and retries after crashes or timeouts) can reorder
   *execution* but never *output*.

The loop owns resume of digest-valid shards from each run's
:class:`~repro.fleet.store.ArtifactStore`, persist on completion, the
retry budget, control polling, dispatch order and the typed
``Shard*`` events (:mod:`repro.obs.events`) that report all of it.
:func:`run_fleet` is the loop over one run, raising when it halts; the
campaign service's ``run_hunts`` is the loop over many.
How a shard runs and how a failed attempt is classified belong to
:mod:`repro.fleet.pool` (``docs/fleet.md``, "Failure policy").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

from repro.errors import ConfigurationError, FleetError
from repro.fleet.digest import fleet_signature
from repro.fleet.pool import (
    Attempt,
    ShardRunner,
    ShardTask,
    WorkPool,
    import_for_workers,
    records_to_jsonable,
    result_from_records,
    run_shard,
)
from repro.fleet.spec import FleetSpec, ShardJob
from repro.fleet.store import ArtifactStore
from repro.methodology.records import CampaignResult, TestRecord
from repro.obs.events import (
    EventCallback,
    FleetCompleted,
    FleetStarted,
    ShardCompleted,
    ShardEvent,
    ShardRetried,
    ShardSkipped,
    ShardStarted,
    ShardTestChecked,
)

__all__ = ["run_fleet", "dispatch_runs", "ShardRun", "execute_shard",
           "FleetOutcome", "ShardRunner", "DEFAULT_MAX_RETRIES"]

#: Extra attempts granted to a shard after a worker crash or timeout.
DEFAULT_MAX_RETRIES = 2


def execute_shard(job: ShardJob) -> CampaignResult:
    """Run one shard: a full campaign, pure in ``(service, config)``."""
    from repro.methodology.runner import run_campaign

    return run_campaign(job.service, job.config)


@dataclass
class ShardRun:
    """One spec's shards in the dispatch loop: its jobs, where they
    persist and — filled by the loop — how far they got."""

    jobs: tuple[ShardJob, ...]
    store: ArtifactStore | None = None
    max_retries: int = DEFAULT_MAX_RETRIES
    #: Execute shards through the streaming engine, which reports
    #: every closed test (``ShardTestChecked``).  Ignored when a custom
    #: ``shard_runner`` is injected — fault-injection runners replace
    #: the execution path wholesale.
    stream: bool = False
    #: The run's name in its events: the hunt's id, empty for a fleet.
    hunt_id: str = ""

    # -- filled by the loop ----------------------------------------------
    queue: deque = field(default_factory=deque, repr=False)
    results: dict = field(default_factory=dict, repr=False)
    skipped: tuple[str, ...] = ()
    retries: int = 0
    halt: str | None = None  # "paused" | "cancelled" | error text
    #: Width 1 only: the campaign's own exception behind an error halt.
    error: Exception | None = None


def _resume(run: ShardRun, shard_runner: ShardRunner | None,
            verdicts: Callable[[TestRecord], dict] | None) -> None:
    """Load digest-valid completed shards; queue the rest (FIFO)."""
    skipped = []
    for job in run.jobs:
        if run.store is not None and \
                run.store.shard_state(job.shard_id) == "complete":
            run.results[job.index] = result_from_records(
                job, run.store.load_shard_records(job.shard_id),
                obs=run.store.load_shard_obs(job.shard_id),
            )
            skipped.append(job.shard_id)
        elif shard_runner is not None or not run.stream:
            run.queue.append(
                ShardTask(job, runner=shard_runner or execute_shard))
        else:
            trace_path = (str(run.store.trace_path(job.shard_id))
                          if run.store is not None else None)
            run.queue.append(ShardTask(job, trace_path=trace_path,
                                       verdicts=verdicts))
    run.skipped = tuple(skipped)


def _dispatchable(run: ShardRun) -> bool:
    return bool(run.queue) and run.halt is None


def _next_run(runs: Sequence[ShardRun],
              affinity: ShardRun | None) -> ShardRun | None:
    """The run the next free worker draws from: the one it last served
    while that has work, else the dispatchable run with the largest
    backlog (ties: submission order)."""
    if affinity is not None and _dispatchable(affinity):
        return affinity
    return max((run for run in runs if _dispatchable(run)),
               key=lambda run: len(run.queue), default=None)


def dispatch_runs(runs: Sequence[ShardRun], *,
                  workers: int = 1,
                  shard_runner: ShardRunner | None = None,
                  shard_timeout: float | None = None,
                  control: Callable[[ShardRun], str] | None = None,
                  on_event: EventCallback | None = None,
                  verdicts: Callable[[TestRecord], dict] | None = None
                  ) -> None:
    """Drain every run's shards over one pool of ``workers``.

    ``workers=1`` executes in-process (no worker processes, no
    environmental failures, the campaign's exception kept on
    ``run.error``); ``>= 2`` is process-per-attempt with
    ``shard_timeout`` wall-clock seconds each.  ``shard_runner``
    overrides :func:`execute_shard` and ``verdicts`` adds fields to
    each ``ShardTestChecked``; both run where the shard runs, so both
    must be module-level.  ``control`` answers ``"run"`` / ``"pause"``
    / ``"cancel"`` between dispatches: pausing parks a run's queued
    shards, cancelling discards them; in-flight ones finish and persist.

    ``on_event`` receives, each naming its run's ``hunt_id``: one
    ``ShardSkipped`` per shard restored from a store (every run is
    resumed before the first event), then ``ShardStarted`` per
    attempt, ``ShardTestChecked`` per closed test of a streaming
    shard, ``ShardCompleted`` once a result is merged and persisted,
    and ``ShardRetried`` per re-queued attempt.

    The law, held by ``tests/test_dispatch_law.py``:

    * every run ends in exactly one of done (``halt is None``) /
      ``"paused"`` / ``"cancelled"`` / failed (``halt`` is the error
      text);
    * done ⇒ ``results`` covers ``jobs``;
    * paused ⇒ ``results`` ∪ the parked ``queue`` = ``jobs``, and a
      second pass over the same store finishes it to the signature an
      uninterrupted pass produces;
    * attempts started = completed + retried + halting + abandoned,
      where only an attempt that outlives its cancelled or failed run
      and ends without a result is abandoned;
    * an unrecoverable shard halts its own run only: a failing or
      cancelled run never costs another run a shard.
    """
    emit = on_event or (lambda event: None)
    control = control or (lambda run: "run")

    def announce(cls: type[ShardEvent], run: ShardRun, job: ShardJob,
                 **fields) -> None:
        emit(cls(shard_id=job.shard_id, index=job.index,
                 total=len(run.jobs), service=job.service, seed=job.seed,
                 label=job.label, hunt_id=run.hunt_id, **fields))

    for run in runs:
        _resume(run, shard_runner, verdicts)
    for run in runs:
        for job in run.jobs:
            if job.index in run.results:
                announce(ShardSkipped, run, job)

    def poll_control() -> None:
        for run in runs:
            if run.halt is not None:
                continue
            verdict = control(run)
            if verdict == "pause" and run.queue:
                run.halt = "paused"
            elif verdict == "cancel":
                run.queue.clear()
                run.halt = "cancelled"

    def checked(task: ShardTask, run: ShardRun, message: dict) -> None:
        announce(ShardTestChecked, run, task.job, **message)

    def complete(run: ShardRun, task: ShardTask, result: CampaignResult,
                 records: list[dict] | None = None) -> None:
        if run.store is not None:
            if records is None:  # in-process: nothing crossed a pipe
                records = records_to_jsonable(result)
            run.store.write_shard(task.job, records, obs=result.obs)
        run.results[task.job.index] = result
        announce(ShardCompleted, run, task.job, attempts=task.attempt,
                 records=len(result.records))

    def halt(run: ShardRun, text: str,
             error: Exception | None = None) -> None:
        run.queue.clear()
        run.halt, run.error = text, error

    def settle(done: Attempt) -> None:
        run, task = done.tag, done.task
        shard = f"shard {task.job.shard_id!r}"
        if done.kind == "result":
            complete(run, task, done.result, done.records)
        elif run.halt not in (None, "paused"):
            pass  # abandoned: its run was cancelled or already failed
        elif done.kind == "error":
            halt(run, f"{shard} campaign failed:\n{done.detail}")
        elif task.attempt > run.max_retries:
            halt(run, f"{shard} failed after {task.attempt} attempts: "
                      f"{done.detail}")
        else:
            run.retries += 1
            retry = replace(task, attempt=task.attempt + 1)
            run.queue.appendleft(retry)
            announce(ShardRetried, run, retry.job,
                     attempt=retry.attempt, reason=done.detail)

    if workers == 1:
        run = None
        while True:
            poll_control()
            run = _next_run(runs, run)
            if run is None:
                return
            task = run.queue.popleft()
            announce(ShardStarted, run, task.job, attempt=task.attempt)
            try:
                result = run_shard(task, checked, run)
            except Exception as exc:  # noqa: BLE001 - halts this run only
                halt(run, f"shard {task.job.shard_id!r} campaign "
                          f"failed: {exc}", exc)
                continue
            complete(run, task, result)

    #: One entry per idle worker slot: the run it last served (its
    #: affinity), None until it has served one.
    idle: deque[ShardRun | None] = deque([None] * workers)
    import_for_workers(task for run in runs for task in run.queue)
    with WorkPool(checked, timeout=shard_timeout) as pool:
        while pool.in_flight or any(_dispatchable(run) for run in runs):
            poll_control()
            while idle:
                run = _next_run(runs, idle[0])
                if run is None:
                    break
                idle.popleft()
                task = run.queue.popleft()
                pool.submit(task, run)
                announce(ShardStarted, run, task.job,
                         attempt=task.attempt)
            if not pool.in_flight:
                break  # every remaining run halted, nothing running
            for done in pool.wait():
                idle.append(done.tag)
                settle(done)


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
        from repro.obs.context import merge_obs_snapshots

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

    :func:`dispatch_runs` over one run; the first unrecoverable shard
    ends the fleet with :class:`~repro.errors.FleetError`.

    Parameters
    ----------
    jobs:
        Worker processes.  1 (default) executes in-process (a campaign
        exception then propagates as itself); >= 2 uses a worker pool.
    out_dir:
        Artifact-store directory.  Enables persistence and resume:
        digest-valid completed shards found there are loaded instead
        of re-run, and newly completed shards are written back as
        they finish.
    on_event:
        Telemetry callback: ``FleetStarted``, the loop's ``Shard*``
        events (:func:`dispatch_runs`), then ``FleetCompleted``.
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
    emit = on_event or (lambda event: None)

    store: ArtifactStore | None = None
    if out_dir is not None:
        store = ArtifactStore(out_dir)
        store.initialize(spec)
    run = ShardRun(tuple(spec.jobs()), store=store,
                   max_retries=max_retries, stream=stream)
    started = False

    def relay(event: ShardEvent) -> None:
        """The loop's events, after one ``FleetStarted``: the loop
        resumes before its first event, so ``run.skipped`` is final."""
        nonlocal started
        if not started:
            started = True
            emit(FleetStarted(total_shards=len(run.jobs), jobs=jobs,
                              resumed=len(run.skipped)))
        emit(event)

    dispatch_runs([run], workers=jobs, shard_runner=shard_runner,
                  shard_timeout=shard_timeout, on_event=relay)
    if run.error is not None:
        raise run.error
    if run.halt is not None:
        raise FleetError(run.halt)

    executed = tuple(job.shard_id for job in run.jobs
                     if job.shard_id not in run.skipped)
    emit(FleetCompleted(executed=len(executed),
                        skipped=len(run.skipped), retries=run.retries))
    return FleetOutcome(
        spec=spec, jobs=run.jobs,
        results=[run.results[job.index] for job in run.jobs],
        skipped=run.skipped, executed=executed, retries=run.retries,
    )
