"""Deterministic parallel campaign execution: the one dispatch loop.

Every shard in this repository is dispatched by :func:`dispatch_run`,
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

The loop owns resume of digest-valid shards from the run's
:class:`~repro.fleet.store.ArtifactStore`, persist on completion, the
retry budget, dispatch order and the typed ``Shard*`` events
(:mod:`repro.obs.events`) that report all of it; :func:`run_fleet`
runs it over one spec's shards and raises when it halts.
How a shard runs and how a failed attempt is classified belong to
:mod:`repro.fleet.pool` (``docs/fleet.md``, "Failure policy").
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
    import_for_workers,
    records_to_jsonable,
    result_from_records,
    run_shard,
)
from repro.fleet.spec import FleetSpec, ShardJob
from repro.fleet.store import ArtifactStore
from repro.methodology.records import CampaignResult
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

__all__ = ["run_fleet", "dispatch_run", "ShardRun", "execute_shard",
           "FleetOutcome", "ShardRunner", "DEFAULT_MAX_RETRIES"]

#: Extra attempts granted to a shard after a worker crash or timeout.
DEFAULT_MAX_RETRIES = 2


def execute_shard(job: ShardJob) -> CampaignResult:
    """Run one shard: a full campaign, pure in ``(service, config)``.

    Its spans are kept: a fleet's store and ``merged_obs()`` export
    them.
    """
    from repro.methodology.runner import run_campaign

    return run_campaign(job.service, job.config, spans=True)


@dataclass
class ShardRun:
    """One spec's shards in the dispatch loop: its jobs, where they
    persist and — filled by the loop — how far they got."""

    jobs: tuple[ShardJob, ...]
    store: ArtifactStore | None = None
    max_retries: int = DEFAULT_MAX_RETRIES
    #: Report every closed test (``ShardTestChecked``) and, with a
    #: store, archive each shard's operations.  Ignored when a custom
    #: ``shard_runner`` is injected — fault-injection runners replace
    #: the execution path wholesale.
    stream: bool = False

    # -- filled by the loop ----------------------------------------------
    queue: deque = field(default_factory=deque, repr=False)
    results: dict = field(default_factory=dict, repr=False)
    skipped: tuple[str, ...] = ()
    retries: int = 0
    halt: str | None = None  # the error text of a failed run
    #: Width 1 only: the campaign's own exception behind the halt.
    error: Exception | None = None


def _resume(run: ShardRun, shard_runner: ShardRunner | None) -> None:
    """Load digest-valid completed shards; queue the rest (FIFO)."""
    skipped = []
    for job in run.jobs:
        if run.store is not None and \
                run.store.shard_state(job.shard_id) == "complete":
            # Records only: the obs snapshot waits for merged_obs().
            run.results[job.index] = result_from_records(
                job, run.store.load_shard_records(job.shard_id))
            skipped.append(job.shard_id)
        elif shard_runner is not None or not run.stream:
            run.queue.append(
                ShardTask(job, runner=shard_runner or execute_shard))
        else:
            trace_path = (str(run.store.trace_path(job.shard_id))
                          if run.store is not None else None)
            run.queue.append(ShardTask(job, trace_path=trace_path))
    run.skipped = tuple(skipped)


def dispatch_run(run: ShardRun, *,
                 workers: int = 1,
                 shard_runner: ShardRunner | None = None,
                 shard_timeout: float | None = None,
                 on_event: EventCallback | None = None) -> None:
    """Drain ``run``'s shards over a pool of ``workers``.

    ``workers=1`` executes in-process (no worker processes, no
    environmental failures, the campaign's exception kept on
    ``run.error``); ``>= 2`` is process-per-attempt with
    ``shard_timeout`` wall-clock seconds each.  ``shard_runner``
    overrides :func:`execute_shard`; it runs where the shard runs, so
    it must be module-level.

    ``on_event`` receives one ``ShardSkipped`` per shard restored from
    the store (the run is resumed before the first event), then
    ``ShardStarted`` per attempt, ``ShardTestChecked`` per closed test
    of a streaming shard, ``ShardCompleted`` once a result is merged
    and persisted, and ``ShardRetried`` per re-queued attempt.

    The law, held by ``tests/test_dispatch_law.py``:

    * the run ends either done (``halt is None``) or failed (``halt``
      is the error text);
    * done ⇒ ``results`` covers ``jobs``;
    * attempts started = completed + retried + halting + abandoned,
      where only an attempt that outlives its failed run and ends
      without a result is abandoned.
    """
    emit = on_event or (lambda event: None)

    def announce(cls: type[ShardEvent], job: ShardJob, **fields) -> None:
        emit(cls(shard_id=job.shard_id, index=job.index,
                 total=len(run.jobs), service=job.service, seed=job.seed,
                 label=job.label, **fields))

    _resume(run, shard_runner)
    for job in run.jobs:
        if job.index in run.results:
            announce(ShardSkipped, job)

    def checked(task: ShardTask, message: dict) -> None:
        announce(ShardTestChecked, task.job, **message)

    def complete(task: ShardTask, result: CampaignResult,
                 records: list[dict] | None = None) -> None:
        if run.store is not None:
            if records is None:  # in-process: nothing crossed a pipe
                records = records_to_jsonable(result)
            run.store.write_shard(task.job, records, obs=result.obs)
        run.results[task.job.index] = result
        announce(ShardCompleted, task.job, attempts=task.attempt,
                 records=len(result.records))

    def halt(text: str, error: Exception | None = None) -> None:
        run.queue.clear()
        run.halt, run.error = text, error

    def settle(done: Attempt) -> None:
        task = done.task
        shard = f"shard {task.job.shard_id!r}"
        if done.kind == "result":
            complete(task, done.result, done.records)
        elif run.halt is not None:
            pass  # abandoned: the run already failed
        elif done.kind == "error":
            halt(f"{shard} campaign failed:\n{done.detail}")
        elif task.attempt > run.max_retries:
            halt(f"{shard} failed after {task.attempt} attempts: "
                 f"{done.detail}")
        else:
            run.retries += 1
            retry = replace(task, attempt=task.attempt + 1)
            run.queue.appendleft(retry)
            announce(ShardRetried, retry.job, attempt=retry.attempt,
                     reason=done.detail)

    if workers == 1:
        while run.queue:
            task = run.queue.popleft()
            announce(ShardStarted, task.job, attempt=task.attempt)
            try:
                result = run_shard(task, checked)
            except Exception as exc:  # noqa: BLE001 - halts the run
                halt(f"shard {task.job.shard_id!r} campaign failed: "
                     f"{exc}", exc)
                return
            complete(task, result)
        return

    import_for_workers(run.queue)
    with WorkPool(checked, timeout=shard_timeout) as pool:
        while run.queue or pool.in_flight:
            while run.queue and pool.in_flight < workers:
                task = run.queue.popleft()
                pool.submit(task)
                announce(ShardStarted, task.job, attempt=task.attempt)
            for done in pool.wait():
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
    #: The run's artifact store; the skipped shards' snapshots live
    #: there until :meth:`merged_obs` loads them.
    store: ArtifactStore | None = None

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
        runs.  An executed shard contributes its live snapshot; a
        restored one is read from the store now, not at resume.
        Returns None if any shard has no snapshot: a restored shard
        whose export is absent (a store written before obs existed)
        or damaged (even after this run wrote it).
        """
        from repro.obs.context import merge_obs_snapshots

        snapshots = [
            self.store.load_shard_obs(job.shard_id)
            if job.shard_id in self.skipped else result.obs
            for job, result in zip(self.jobs, self.results)
        ]
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

    :func:`dispatch_run` over the spec's shards; the first
    unrecoverable shard ends the fleet with
    :class:`~repro.errors.FleetError`.

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
        events (:func:`dispatch_run`), then ``FleetCompleted``.
    shard_timeout:
        Wall-clock seconds one shard attempt may run (workers only);
        a timed-out worker is terminated and the shard retried.
    max_retries:
        Extra attempts per shard after worker crashes/timeouts.
    shard_runner:
        Override of :func:`execute_shard`; must be a module-level
        callable when ``jobs >= 2`` (it crosses the process boundary).
    stream:
        Report as shards run (:func:`repro.fleet.pool.run_shard`): the
        shards compute exactly what the batch fleet does, and every
        test closure is also reported as a
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

    dispatch_run(run, workers=jobs, shard_runner=shard_runner,
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
        store=store,
    )
