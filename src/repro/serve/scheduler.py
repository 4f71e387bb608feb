"""Work-stealing shard scheduling across concurrent hunts.

The fleet executor runs *one* spec's shards over a pool.  A campaign
service has many hunts in flight at once, with skewed shard counts —
one hunt with dozens of shards next to several one-shard hunts — and a
naive per-hunt dispatch (drain hunt A, then hunt B, ...) leaves most
of the pool idle every time a small hunt reaches the barrier.  This
module schedules *across* hunts:

* every hunt keeps its own pending deque (FIFO in spec merge order);
* each worker slot has a hunt *affinity* — it keeps drawing from the
  hunt it last served, so a hunt's shards cluster on warm workers;
* a worker whose hunt runs dry **steals** from the hunt with the most
  shards remaining, keeping every core busy until the global queue is
  empty.

``policy="sequential"`` disables stealing and dispatch interleaving —
hunts run strictly one after another — and exists as the benchmark
baseline (``BENCH_serve.json`` compares the two on a skewed mix).

Determinism: scheduling moves shards between workers and reorders
*execution*, never *output*.  Shards are pure functions of their job;
results merge by shard index; completed shards persist through each
hunt's own :class:`~repro.fleet.store.ArtifactStore`.  A hunt executed
here is byte-identical to the same spec under ``run_fleet`` — the
parity gate (``tools/gates.py serve``) holds the scheduler to
that.

How a shard runs and how a crashed, timed-out or failed attempt is
classified belong to :mod:`repro.fleet.pool`, shared with the fleet
executor (``docs/fleet.md``, "Failure policy").  What differs here is
the consequence: an unrecoverable shard halts only its own hunt — the
pool keeps serving the others.

This is the serving shell: it runs on the host, outside any
simulation; the host time it leans on (the pool's shard deadlines,
waived line by line under ``repro.lint`` DET002) affects only when a
shard executes, never what it computes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.errors import ConfigurationError
from repro.fleet.digest import fleet_signature
from repro.fleet.executor import DEFAULT_MAX_RETRIES, execute_shard
from repro.fleet.pool import (
    Attempt,
    ShardRunner,
    ShardTask,
    WorkPool,
    records_to_jsonable,
    result_from_records,
    run_shard,
)
from repro.fleet.spec import ShardJob
from repro.fleet.store import ArtifactStore
from repro.methodology.runner import CampaignResult
from repro.obs.events import (
    HuntShardCompleted,
    HuntShardRetried,
    HuntTestChecked,
    ObsEvent,
)

__all__ = ["HuntRun", "HuntOutcome", "run_hunts", "SCHEDULER_POLICIES"]

SCHEDULER_POLICIES = ("stealing", "sequential")

#: Control verdict for one hunt, polled between dispatches.
ControlFn = Callable[[str], str]

EventFn = Callable[[ObsEvent], None]


@dataclass
class HuntRun:
    """One hunt's scheduling input: its jobs and its artifact store."""

    hunt_id: str
    jobs: tuple[ShardJob, ...]
    store: ArtifactStore | None = None
    max_retries: int = DEFAULT_MAX_RETRIES
    #: Execute shards through the streaming engine, emitting one
    #: :class:`~repro.obs.events.HuntTestChecked` (anomalies + window
    #: verdicts) per closed test.  Ignored when a custom
    #: ``shard_runner`` is injected — fault-injection runners replace
    #: the execution path wholesale.
    stream: bool = False

    # -- filled by the scheduler ----------------------------------------
    queue: deque = field(default_factory=deque, repr=False)
    results: dict = field(default_factory=dict, repr=False)
    skipped: tuple[str, ...] = ()
    running: int = 0
    retries: int = 0
    halt: str | None = None  # "paused" | "cancelled" | error text


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


def _resume(run: HuntRun, shard_runner: ShardRunner | None) -> None:
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
            # A custom runner replaces the execution path, stream
            # included.
            run.queue.append(ShardTask(
                job, runner=shard_runner or execute_shard))
        else:
            trace_path = (str(run.store.trace_path(job.shard_id))
                          if run.store is not None else None)
            run.queue.append(ShardTask(job, trace_path=trace_path,
                                       verdicts=window_verdicts))
    run.skipped = tuple(skipped)


def _complete(run: HuntRun, job: ShardJob, result: CampaignResult,
              jsonable: list | None, emit: EventFn) -> None:
    if run.store is not None:
        run.store.write_shard(
            job, jsonable if jsonable is not None
            else records_to_jsonable(result),
            obs=result.obs,
        )
    run.results[job.index] = result
    emit(HuntShardCompleted(
        hunt_id=run.hunt_id, shard_id=job.shard_id,
        done=len(run.results), total=len(run.jobs),
    ))


def _halt(run: HuntRun, error: str) -> None:
    """Fail one hunt: drop its queue; the others keep being served."""
    run.queue.clear()
    run.halt = error


def _settle(run: HuntRun, done: Attempt, emit: EventFn) -> None:
    """Apply one ended pool attempt to its hunt: result, halt or retry."""
    task, job = done.task, done.task.job
    if done.kind == "result":
        _complete(run, job, done.result, done.records, emit)
    elif done.kind == "error":
        _halt(run, f"shard {job.shard_id!r} campaign "
                   f"failed:\n{done.detail}")
    elif task.attempt > run.max_retries:
        _halt(run, f"shard {job.shard_id!r} failed after "
                   f"{task.attempt} attempts: {done.detail}")
    else:
        run.retries += 1
        emit(HuntShardRetried(
            hunt_id=run.hunt_id, shard_id=job.shard_id,
            attempt=task.attempt + 1, reason=done.detail,
        ))
        run.queue.appendleft(replace(task, attempt=task.attempt + 1))


def _outcome(run: HuntRun) -> HuntOutcome:
    if run.halt in ("paused", "cancelled"):
        return HuntOutcome(hunt_id=run.hunt_id, status=run.halt,
                           skipped=run.skipped, retries=run.retries)
    if run.halt is not None:
        return HuntOutcome(hunt_id=run.hunt_id, status="failed",
                           skipped=run.skipped, retries=run.retries,
                           error=run.halt)
    return HuntOutcome(
        hunt_id=run.hunt_id, status="done",
        results=tuple(run.results[job.index] for job in run.jobs),
        skipped=run.skipped, retries=run.retries,
    )


def _dispatchable(run: HuntRun) -> bool:
    return bool(run.queue) and run.halt is None


def run_hunts(runs: list[HuntRun], *,
              workers: int = 1,
              policy: str = "stealing",
              shard_runner: ShardRunner | None = None,
              shard_timeout: float | None = None,
              control: ControlFn | None = None,
              on_event: EventFn | None = None) -> list[HuntOutcome]:
    """Drain every hunt's shards over one worker pool.

    Parameters
    ----------
    workers:
        Pool width.  1 executes in-process (no worker processes), the
        serial reference path; >= 2 is process-per-shard.
    policy:
        ``"stealing"`` (default) interleaves hunts and steals from the
        largest backlog; ``"sequential"`` drains hunts strictly one at
        a time (the benchmark baseline).
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
        Receives :class:`~repro.obs.events.HuntShardCompleted` /
        :class:`~repro.obs.events.HuntShardRetried` telemetry.
    """
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if policy not in SCHEDULER_POLICIES:
        raise ConfigurationError(
            f"unknown scheduler policy {policy!r} "
            f"(expected one of {SCHEDULER_POLICIES})"
        )
    emit = on_event or (lambda event: None)
    verdict = control or (lambda hunt_id: "run")

    for run in runs:
        _resume(run, shard_runner)

    def apply_control() -> None:
        for run in runs:
            if run.halt is not None:
                continue
            decision = verdict(run.hunt_id)
            if decision == "pause" and run.queue:
                run.halt = "paused"
            elif decision == "cancel":
                run.queue.clear()
                run.halt = "cancelled"

    def test_checked(task: ShardTask, run: HuntRun,
                     message: dict) -> None:
        emit(HuntTestChecked(hunt_id=run.hunt_id,
                             shard_id=task.job.shard_id, **message))

    if workers == 1:
        # In-process: a campaign exception still fails just its hunt.
        affinity: str | None = None
        while True:
            apply_control()
            run = _next_run(runs, policy, affinity)
            if run is None:
                break
            affinity = run.hunt_id
            task = run.queue.popleft()
            try:
                result = run_shard(task, test_checked, run)
            except Exception as exc:  # noqa: BLE001 - isolate per hunt
                _halt(run, f"shard {task.job.shard_id!r} campaign "
                           f"failed: {exc}")
                continue
            _complete(run, task.job, result, None, emit)
        return [_outcome(run) for run in runs]

    #: One entry per idle worker slot: the hunt it last served (its
    #: affinity), None until it has served one.
    idle: deque[str | None] = deque([None] * workers)
    with WorkPool(test_checked, timeout=shard_timeout) as pool:
        while pool.in_flight or any(_dispatchable(run) for run in runs):
            apply_control()
            while idle:
                run = _next_run(runs, policy, idle[0])
                if run is None:
                    break
                idle.popleft()
                pool.submit(run.queue.popleft(), run)
                run.running += 1
            if not pool.in_flight:
                # Nothing running and nothing dispatchable right now
                # (every remaining hunt halted).
                break
            for done in pool.wait():
                run = done.tag
                idle.append(run.hunt_id)
                run.running -= 1
                _settle(run, done, emit)
    return [_outcome(run) for run in runs]


# -- Dispatch policy ----------------------------------------------------


def _next_run(runs: list[HuntRun], policy: str,
              affinity: str | None) -> HuntRun | None:
    """The hunt the next free worker should draw from.

    Stealing: the affinity hunt while it has work, else the
    dispatchable hunt with the largest backlog (ties: submission
    order).  Sequential: the first hunt, in submission order, that is
    not finished — and only if none before it still has work in
    flight, preserving the strict one-hunt-at-a-time baseline.
    """
    if policy == "sequential":
        for run in runs:
            if _dispatchable(run):
                return run
            if run.running and run.halt is None:
                return None  # barrier: earlier hunt still in flight
        return None
    if affinity is not None:
        for run in runs:
            if run.hunt_id == affinity and _dispatchable(run):
                return run
    candidates = [run for run in runs if _dispatchable(run)]
    if not candidates:
        return None
    return max(candidates, key=lambda run: len(run.queue))


# -- Streaming verdicts --------------------------------------------------


def window_verdicts(record) -> dict[str, dict[str, list[dict]]]:
    """One test record's divergence windows, JSON-safe.

    The per-pair verdicts a follow-mode consumer of the event feed
    acts on: which agent pairs diverged, over which intervals, and
    whether they reconverged before the test closed.  Computed where
    the shard runs and carried to the host as the ``windows`` field of
    each :class:`~repro.obs.events.HuntTestChecked`.
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
