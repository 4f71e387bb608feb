"""The dispatch loop's law, held by a machine.

``repro.fleet.executor.dispatch_run`` states it in its docstring:

* the run ends either done or failed;
* done => results cover ``jobs``;
* attempts started = completed + retried + halting + abandoned
  (abandoned: ended without a result after the run had already
  failed).

Width 1 is explored by ``hypothesis``: scripted per-shard outcomes
(ok / raises) over one run of 1-5 shards, a runner that replays
pre-computed records, and a second pass over the same store that
finishes a failed run to the signature of an uninterrupted one.
Width 2 replays the worker-failure runners of ``test_fleet`` (crash,
hang, deterministic failure) with real tiny campaigns.
"""

import functools
import os
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import ArtifactStore, FleetSpec, fleet_signature
from repro.fleet.executor import ShardRun, dispatch_run, execute_shard
from repro.methodology import CampaignConfig
from repro.methodology.runner import CampaignResult
from repro.obs.events import ShardCompleted, ShardRetried, ShardStarted
from tests.test_fleet import (
    MARKER_ENV,
    crash_blogger_runner,
    crash_once_runner,
    hang_once_runner,
)

TINY = CampaignConfig(num_tests=1, test_types=("test1",))


def spec_for(seeds, services=("blogger",)):
    return FleetSpec(services=services, base_config=TINY,
                     seeds=tuple(seeds))


class Recorder:
    """The loop's ``on_event``: ``(index, attempt)`` per event kind."""

    def __init__(self):
        self.starts, self.completions, self.retries = [], [], []

    def __call__(self, event):
        if isinstance(event, ShardStarted):
            log, attempt = self.starts, event.attempt
        elif isinstance(event, ShardCompleted):
            log, attempt = self.completions, event.attempts
        elif isinstance(event, ShardRetried):
            log, attempt = self.retries, event.attempt
        else:
            return
        log.append((event.index, attempt))


def status(run):
    return "done" if run.halt is None else "failed"


def check_law(run, recorder):
    """Everything the law says about one finished pass."""
    every = {job.index for job in run.jobs}
    have = set(run.results)
    assert have <= every and not run.queue
    started = len(recorder.starts)
    completed = len(recorder.completions)
    unfinished = started - completed - len(recorder.retries)
    assert completed + len(run.skipped) == len(have)

    if status(run) == "done":
        assert have == every and unfinished == 0
    else:
        assert run.halt.startswith("shard ")
        assert unfinished >= 1  # one halted it, the rest abandoned

    # FIFO: first attempts start in spec order.
    firsts = [index for index, attempt in recorder.starts
              if attempt == 1]
    assert firsts == sorted(firsts)


# -- Width 1, explored ---------------------------------------------------


@functools.cache
def record_pool():
    """A few real shards' records, computed once, replayed by seed."""
    return tuple(execute_shard(job).records
                 for job in spec_for((1, 2, 3)).jobs())


class Scripted:
    """A shard runner that follows a script: seed -> "ok" | "raise"."""

    def __init__(self, script):
        self.script = script
        self.calls = Counter()

    def __call__(self, job):
        self.calls[job.seed] += 1
        if self.script.get(job.seed, "ok") == "raise":
            raise ValueError(f"scripted failure of seed {job.seed}")
        pool = record_pool()
        return CampaignResult(service=job.service, config=job.config,
                              records=list(pool[job.seed % len(pool)]))


#: One run of 1-5 shards, each "ok" or "raise" (mostly ok).
shapes = st.lists(st.sampled_from(["ok"] * 4 + ["raise"]),
                  min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(shapes)
def test_width_one_law(shape):
    with tempfile.TemporaryDirectory() as scratch:
        spec = spec_for(range(len(shape)))
        script = dict(enumerate(shape))

        def fresh_run():
            store = ArtifactStore(Path(scratch))
            store.initialize(spec)
            return ShardRun(tuple(spec.jobs()), store=store)

        run = fresh_run()
        runner, recorder = Scripted(script), Recorder()
        dispatch_run(run, workers=1, shard_runner=runner,
                     on_event=recorder)

        check_law(run, recorder)
        assert sum(runner.calls.values()) == len(recorder.starts)
        assert not recorder.retries  # nothing environmental in-process
        failed = status(run) == "failed"
        assert failed == ("raise" in shape)
        assert failed == (run.error is not None)
        if failed:
            # Exactly the attempt that raised halted it.
            assert len(recorder.starts) == len(recorder.completions) + 1
            assert isinstance(run.error, ValueError)

        # Second pass, nothing scripted to fail: the shards the first
        # pass persisted are restored, and the run finishes to the
        # signature of an uninterrupted pass.
        again = fresh_run()
        dispatch_run(again, workers=1, shard_runner=Scripted({}))
        assert status(again) == "done"
        assert set(run.results) == {
            job.index for job in again.jobs
            if job.shard_id in again.skipped}
        merged = [again.results[job.index] for job in again.jobs]
        uninterrupted = [
            CampaignResult(service=job.service, config=job.config,
                           records=list(record_pool()[job.seed % 3]))
            for job in spec.jobs()]
        assert fleet_signature(merged) == fleet_signature(uninterrupted)


# -- Width 2, the real failure modes -------------------------------------


@pytest.fixture
def markers(tmp_path, monkeypatch):
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    monkeypatch.setenv(MARKER_ENV, str(marker_dir))
    return marker_dir


def fail_fast_or_crash_late_runner(job):
    """Seed 1 raises at once; every other shard dies a little later."""
    if job.seed == 1:
        raise ValueError("deterministic campaign failure")
    time.sleep(0.4)
    os._exit(3)


class TestWidthTwoLaw:
    def test_crashes_are_retried(self, tmp_path, markers):
        spec = spec_for((1, 2, 3))
        store = ArtifactStore(tmp_path / "run")
        store.initialize(spec)
        run, recorder = ShardRun(tuple(spec.jobs()), store=store), \
            Recorder()
        dispatch_run(run, workers=2, on_event=recorder,
                     shard_runner=crash_once_runner)
        check_law(run, recorder)
        assert status(run) == "done"
        assert run.retries == 3
        assert len(recorder.starts) == 6  # every shard ran twice

    def test_a_hang_is_timed_out_and_retried(self, markers):
        run, recorder = ShardRun(tuple(spec_for((1,)).jobs())), \
            Recorder()
        dispatch_run(run, workers=2, on_event=recorder,
                     shard_runner=hang_once_runner, shard_timeout=1.0)
        check_law(run, recorder)
        assert status(run) == "done"
        assert len(recorder.retries) == 1

    def test_an_exhausted_retry_budget_fails_the_run(self):
        spec = spec_for((1, 2), services=("blogger", "quorum_kv"))
        run = ShardRun(tuple(spec.jobs()), max_retries=1)
        recorder = Recorder()
        dispatch_run(run, workers=2, on_event=recorder,
                     shard_runner=crash_blogger_runner)
        check_law(run, recorder)
        assert status(run) == "failed"
        assert "failed after 2 attempts" in run.halt
        assert all(run.jobs[index].service == "quorum_kv"
                   for index in run.results)

    def test_an_attempt_that_outlives_its_run_is_abandoned(self):
        # Both shards are in flight when the first one's exception
        # fails the run; the second one's crash must not be queued for
        # a retry nobody will dispatch, nor reported as one.
        run, recorder = ShardRun(tuple(spec_for((1, 2)).jobs())), \
            Recorder()
        dispatch_run(run, workers=2, on_event=recorder,
                     shard_runner=fail_fast_or_crash_late_runner)
        check_law(run, recorder)
        assert len(recorder.starts) == 2
        assert "deterministic campaign failure" in run.halt
        assert not recorder.retries and run.retries == 0
