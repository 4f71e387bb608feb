"""The one work pool: everything process-shaped about running shards.

The dispatch loop (:func:`repro.fleet.executor.dispatch_run`, under
``run_fleet``) decides *which* shard runs next; this module is *how* a shard runs — in this process
(:func:`run_shard`) or in a worker process (:class:`WorkPool`) — and
how an attempt that did not end in a result is classified
(:class:`Attempt`; ``docs/fleet.md``, "Failure policy").  A
shard is always ``run_campaign(service, config)`` underneath, so
nothing here can change what a shard computes, only where and when:
the pool runs on the host, outside the simulation, and its wall-clock
timeouts never reach a result.

:func:`start_worker` is the one place a worker process is made — for
a shard attempt here, and for a shard group of the partitioned world
(:mod:`repro.world.engine`) — and :func:`usable_cores` the one place
the host's core count is read.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import KW_ONLY, dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.fleet.spec import ShardJob
from repro.methodology.records import CampaignResult, TestRecord

__all__ = ["ShardRunner", "ShardTask", "Attempt", "WorkPool",
           "run_shard", "records_to_jsonable", "result_from_records",
           "import_for_workers", "start_worker", "usable_cores"]

#: A shard runner: ShardJob -> CampaignResult.  Must be picklable
#: (module-level) to cross the worker-process boundary.
ShardRunner = Callable[[ShardJob], CampaignResult]

#: Longest the host sleeps in :meth:`WorkPool.wait` with no deadline
#: due.
POLL_SECONDS = 0.5


@dataclass(frozen=True)
class ShardTask:
    """What one shard attempt executes.  All of it crosses the pipe,
    so all but the job is keyword-only: ``repro.lint`` (PAR001) checks
    by name each callable headed for a worker process."""

    job: ShardJob
    _: KW_ONLY
    #: Batch shard runner; ``None`` runs the batch campaign itself and
    #: reports every closed test as an interim message
    #: (:func:`run_shard`).
    runner: ShardRunner | None = None
    #: 1-based; the client's retry bookkeeping, unused by the worker.
    attempt: int = 1
    #: Streaming only: archive the shard's operation stream here.
    trace_path: str | None = None


@dataclass(frozen=True)
class Attempt:
    """How one pooled shard attempt ended — exactly one of three ways.

    ``"result"``
        The worker shipped the shard's records through the compact
        JSON encoding of :mod:`repro.io`, whose round trip is exact
        for everything the analysis pipeline consumes.
    ``"error"``
        An exception was raised inside the campaign.  That is a pure
        function of the shard — re-running it could only fail
        identically — so clients surface ``detail`` (the traceback)
        and never retry.
    ``"failure"``
        The worker died without a payload (pipe EOF) or outlived the
        per-attempt wall-clock budget and was terminated.  Both are
        environmental, so clients may retry within their budget;
        ``detail`` is the reason.
    """

    task: ShardTask
    kind: str
    result: CampaignResult | None = None
    #: The result's records as they crossed the pipe (store-ready).
    records: list[dict] | None = None
    detail: str = ""


def records_to_jsonable(result: CampaignResult) -> list[dict]:
    """A result's records in the wire/store encoding."""
    from repro.io import record_to_dict

    return [record_to_dict(record) for record in result.records]


def result_from_records(job: ShardJob, jsonable_records: list[dict],
                        obs: dict | None = None) -> CampaignResult:
    """Rebuild a shard's result from its wire/store encoding."""
    from repro.io import record_from_dict

    result = CampaignResult(service=job.service, config=job.config,
                            obs=obs)
    result.records.extend(record_from_dict(record, job.service)
                          for record in jsonable_records)
    return result


def _anomaly_summary(record: TestRecord) -> dict[str, int]:
    """Nonzero per-kind observation counts of one test record."""
    return {kind: len(observations) for kind, observations
            in record.report.observations.items() if observations}


#: Interim-message callback: ``(task, message)`` for each closed test
#: of a streaming task, while its shard is still running.
OnTest = Callable[[ShardTask, dict], None]


def run_shard(task: ShardTask, on_test: OnTest) -> CampaignResult:
    """Run one shard in this process and return its live result.

    The loop's width-1 path calls this directly — no
    serialization, so ``keep_traces`` campaigns retain their traces
    and an exception inside a campaign propagates unwrapped; a pool
    worker calls it with ``on_test`` bound to its pipe.  A streaming
    task is the batch campaign plus two reports: each closed test goes
    to ``on_test`` as a dict of ``test_id``, ``test_index`` (0-based
    within the shard), ``anomalies`` and ``state_size`` (its
    engine's, just closed), and with a ``trace_path`` every operation
    is archived there as it happens.
    """
    if task.runner is not None:
        return task.runner(task.job)
    from repro.core.stream import run_to_completion
    from repro.io import TraceEventWriter
    from repro.methodology.runner import run_campaign
    from repro.relations.registry import resolve_metrics
    from repro.stream.engine import StreamEngine

    job = task.job
    metrics = resolve_metrics(job.config.metrics)
    checked = 0

    def analyzer(trace, keep_trace: bool) -> TestRecord:
        """``analyze_trace``, reporting the record and its engine."""
        nonlocal checked
        engine = StreamEngine(horizon=1, metrics=metrics)
        (record,) = run_to_completion([engine], trace)
        if keep_trace:
            record = replace(record, trace=trace)
        message = {"test_id": record.test_id,
                   "test_index": checked,
                   "anomalies": _anomaly_summary(record),
                   "state_size": engine.state_size()}
        checked += 1
        on_test(task, message)
        return record

    if task.trace_path is None:
        return run_campaign(job.service, job.config, analyzer=analyzer,
                            spans=True)
    path = Path(task.trace_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        return run_campaign(job.service, job.config,
                            observer=TraceEventWriter(handle),
                            analyzer=analyzer, spans=True)


def _worker(conn, task: ShardTask) -> None:
    """Worker-process entry point: interim messages, then the payload.

    A broken pipe on an interim send is ignored — the host may already
    have abandoned this attempt (timeout), and the final send's
    failure handling covers the result itself.
    """
    def send_test(_task, message: dict) -> None:
        try:
            conn.send(message)
        except OSError:
            pass

    try:
        result = run_shard(task, send_test)
        payload = {"ok": True,
                   "records": records_to_jsonable(result),
                   "obs": result.obs}
    except BaseException:
        # The process boundary: whatever ended the campaign is
        # reported to the host, then this process exits.
        payload = {"ok": False, "error": traceback.format_exc()}
    try:
        conn.send(payload)
    finally:
        conn.close()


def import_for_workers(tasks: Iterable[ShardTask]) -> None:
    """Import what ``tasks`` run, before the first worker forks.

    A ``fork`` worker inherits the modules its parent has loaded, and
    the package facades load nothing until a name is read, so without
    this every worker would import the campaign stack again.
    """
    import repro.methodology.runner  # noqa: F401
    from repro.services.profiles import SERVICE_IMPORTS, service_class

    for task in tasks:
        if task.job.service in SERVICE_IMPORTS:
            service_class(task.job.service)


def usable_cores() -> int:
    """The cores this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def start_worker(target: Callable[..., None], args: tuple, *,
                 name: str) -> tuple[Any, Any]:
    """Start ``target(conn, *args)`` in a fresh worker process.

    The one place a worker process is made.  Returns the process and
    the host's end of a duplex pipe whose other end is ``conn``.
    ``target`` and ``args`` cross the process boundary, so they must
    be picklable (module-level callables; PAR001).  Prefers fork
    (cheap, inherits the loaded package) and falls back to spawn.
    """
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context("spawn")
    host, worker = ctx.Pipe()
    process = ctx.Process(target=target, args=(worker, *args),
                          daemon=True, name=name)
    process.start()
    worker.close()
    return process, host


@dataclass
class _Running:
    task: ShardTask
    process: Any
    deadline: float | None


class WorkPool:
    """Process-per-attempt shard execution behind one wait loop.

    The dispatch loop owns dispatch: it calls :meth:`submit` whenever
    it wants another attempt in flight (bounding ``in_flight`` itself)
    and drains :meth:`wait` for the attempts that ended.  ``timeout``
    is the wall-clock seconds one attempt may run.  Leaving the
    ``with`` block terminates whatever is still in flight.
    """

    def __init__(self, on_test: OnTest, *,
                 timeout: float | None = None) -> None:
        self._on_test = on_test
        self._timeout = timeout
        self._running: dict[Any, _Running] = {}

    def __enter__(self) -> "WorkPool":
        return self

    def __exit__(self, *exc_info) -> None:
        for conn in list(self._running):
            self._reap(conn, kill=True)

    @property
    def in_flight(self) -> int:
        return len(self._running)

    def submit(self, task: ShardTask) -> None:
        """Start one attempt of ``task`` in a fresh worker process."""
        process, recv = start_worker(
            _worker, (task,),
            name=f"shard-{task.job.shard_id}-{task.attempt}")
        # Waived: the shard timeout is a host-side deadline on an OS
        # worker process, never a simulated quantity.
        deadline = (time.monotonic() + self._timeout  # repro-lint: disable=DET002
                    if self._timeout is not None else None)
        self._running[recv] = _Running(task, process, deadline)

    def _reap(self, conn, kill: bool = False) -> _Running:
        entry = self._running.pop(conn)
        if kill:
            entry.process.terminate()
        entry.process.join()
        conn.close()
        return entry

    def wait(self) -> Iterator[Attempt]:
        """Yield the attempts that ended, waking on a pipe or deadline.

        Blocks at most :data:`POLL_SECONDS`; may yield nothing.  Each
        yielded attempt is already reaped (process joined, pipe
        closed), so the client may raise out of the loop.
        """
        from multiprocessing import connection

        poll = POLL_SECONDS
        deadlines = [entry.deadline for entry in self._running.values()
                     if entry.deadline is not None]
        if deadlines:
            # Waived: how long to block on the pipes before the next
            # shard-timeout deadline — host time, as above.
            poll = max(0.0, min(poll,
                                min(deadlines) - time.monotonic()))  # repro-lint: disable=DET002
        for conn in connection.wait(list(self._running), timeout=poll):
            entry = self._running[conn]
            try:
                payload = conn.recv()
            except EOFError:
                payload = None
            if payload is not None and "ok" not in payload:
                # Interim message; the shard is still running.
                self._on_test(entry.task, payload)
                continue
            self._reap(conn)
            if payload is None:
                yield Attempt(entry.task, "failure",
                              detail="worker crashed (exit code "
                                     f"{entry.process.exitcode})")
            elif payload["ok"]:
                result = result_from_records(
                    entry.task.job, payload["records"],
                    obs=payload["obs"])
                yield Attempt(entry.task, "result",
                              result=result, records=payload["records"])
            else:
                yield Attempt(entry.task, "error",
                              detail=payload["error"])

        # Waived: compared against the host-side shard deadlines only.
        now = time.monotonic()  # repro-lint: disable=DET002
        for conn, entry in list(self._running.items()):
            if entry.deadline is not None and now > entry.deadline:
                self._reap(conn, kill=True)
                yield Attempt(
                    entry.task, "failure",
                    detail=f"timed out after {self._timeout:.1f}s")
