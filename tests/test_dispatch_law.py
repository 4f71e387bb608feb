"""The dispatch loop's law, held by a machine.

``repro.fleet.executor.dispatch_runs`` states it in its docstring:

* every run ends in exactly one of done / paused / cancelled / failed;
* done => results cover ``jobs``;
* paused => results + the parked queue = ``jobs``, and a second pass
  over the same store finishes it to the signature an uninterrupted
  pass produces;
* attempts started = completed + retried + halting + abandoned
  (abandoned: ended without a result after its run was already
  cancelled or failed);
* a failing or cancelled run never costs another run a shard.

Width 1 is explored by ``hypothesis``: scripted per-shard outcomes
(ok / raises), scripted control verdicts per poll, 1-4 runs of 1-5
shards, a runner that replays pre-computed records.  Width 2 replays
the worker-failure runners of ``test_fleet`` / ``test_serve`` (crash,
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
from repro.fleet.executor import ShardRun, dispatch_runs, execute_shard
from repro.methodology import CampaignConfig
from repro.methodology.runner import CampaignResult
from repro.obs.events import ShardCompleted, ShardRetried, ShardStarted
from tests.test_fleet import MARKER_ENV, crash_once_runner, hang_once_runner
from tests.test_serve import crash_blogger_runner

TINY = CampaignConfig(num_tests=1, test_types=("test1",))


def spec_for(seeds, services=("blogger",)):
    return FleetSpec(services=services, base_config=TINY,
                     seeds=tuple(seeds))


class Recorder:
    """The loop's ``on_event``: logs per run (keyed by ``hunt_id``)."""

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
        log.append((event.hunt_id, event.index, attempt))

    def count(self, log, run):
        return sum(1 for key, _index, _attempt in log
                   if key == run.hunt_id)


def status(run):
    if run.halt is None:
        return "done"
    return run.halt if run.halt in ("paused", "cancelled") else "failed"


def check_law(runs, recorder):
    """Everything the law says about one finished pass."""
    for run in runs:
        every = {job.index for job in run.jobs}
        have = set(run.results)
        parked = [task.job.index for task in run.queue]
        assert have <= every
        started = recorder.count(recorder.starts, run)
        completed = recorder.count(recorder.completions, run)
        retried = recorder.count(recorder.retries, run)
        unfinished = started - completed - retried
        assert completed + len(run.skipped) == len(have)

        if status(run) == "done":
            assert have == every and not parked and unfinished == 0
        elif status(run) == "paused":
            assert unfinished == 0
            assert len(parked) == len(set(parked))
            assert have.isdisjoint(parked)
            assert have | set(parked) == every
        elif status(run) == "cancelled":
            assert unfinished >= 0 and not parked  # abandoned only
        else:
            assert run.halt.startswith("shard ")
            assert unfinished >= 1 and not parked  # one halted it

        # Per-run FIFO: first attempts start in spec order.
        firsts = [index for key, index, attempt in recorder.starts
                  if key == run.hunt_id and attempt == 1]
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


#: 1-4 runs of 1-5 shards, each shard "ok" or "raise" (mostly ok).
shapes = st.lists(
    st.lists(st.sampled_from(["ok"] * 4 + ["raise"]),
             min_size=1, max_size=5),
    min_size=1, max_size=4)
#: What control answers at each successive poll of each run.
verdict_scripts = st.lists(
    st.lists(st.sampled_from(["run"] * 5 + ["pause", "cancel"]),
             max_size=8),
    min_size=4, max_size=4)


@settings(max_examples=300, deadline=None)
@given(shapes, verdict_scripts)
def test_width_one_law(shapes, verdict_scripts):
    with tempfile.TemporaryDirectory() as scratch:
        specs = [spec_for(range(10 * r, 10 * r + len(shape)))
                 for r, shape in enumerate(shapes)]
        script = {10 * r + i: outcome
                  for r, shape in enumerate(shapes)
                  for i, outcome in enumerate(shape)}

        def fresh_runs():
            runs = []
            for r, spec in enumerate(specs):
                store = ArtifactStore(Path(scratch) / f"run{r}")
                store.initialize(spec)
                runs.append(ShardRun(tuple(spec.jobs()), store=store,
                                     hunt_id=f"r{r}"))
            return runs

        runs = fresh_runs()
        pending = {id(run): list(verdicts)
                   for run, verdicts in zip(runs, verdict_scripts)}

        def control(run):
            script_ = pending[id(run)]
            return script_.pop(0) if script_ else "run"

        runner, recorder = Scripted(script), Recorder()
        dispatch_runs(runs, workers=1, shard_runner=runner,
                      control=control, on_event=recorder)

        check_law(runs, recorder)
        assert sum(runner.calls.values()) == len(recorder.starts)
        assert not recorder.retries  # nothing environmental in-process
        for run, shape, verdicts in zip(runs, shapes, verdict_scripts):
            failed = status(run) == "failed"
            assert failed == (run.error is not None)
            if failed:
                # Exactly the attempt that raised halted it.
                assert recorder.count(recorder.starts, run) == \
                    recorder.count(recorder.completions, run) + 1
                assert isinstance(run.error, ValueError)
            # Nobody else's failure or cancellation reaches a run
            # that was never told to stop and never raised.
            if "raise" not in shape and set(verdicts) <= {"run"}:
                assert status(run) == "done"

        # Second pass, nothing scripted to stop it: paused runs finish
        # to the signature of an uninterrupted pass.
        again = fresh_runs()
        dispatch_runs(again, workers=1, shard_runner=Scripted({}))
        for first, second, spec in zip(runs, again, specs):
            assert status(second) == "done"
            assert set(first.results) == {
                job.index for job in second.jobs
                if job.shard_id in second.skipped}
            merged = [second.results[job.index] for job in second.jobs]
            uninterrupted = [
                CampaignResult(service=job.service, config=job.config,
                               records=list(record_pool()[job.seed % 3]))
                for job in spec.jobs()]
            assert fleet_signature(merged) == \
                fleet_signature(uninterrupted)


# -- Width 2, the real failure modes -------------------------------------


@pytest.fixture
def markers(tmp_path, monkeypatch):
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    monkeypatch.setenv(MARKER_ENV, str(marker_dir))
    return marker_dir


def stored_runs(root, specs, **fields):
    runs = []
    for index, spec in enumerate(specs):
        store = ArtifactStore(root / f"run{index}")
        store.initialize(spec)
        runs.append(ShardRun(tuple(spec.jobs()), store=store,
                             hunt_id=f"r{index}", **fields))
    return runs


def fail_fast_or_crash_late_runner(job):
    """Seed 1 raises at once; every other shard dies a little later."""
    if job.seed == 1:
        raise ValueError("deterministic campaign failure")
    time.sleep(0.4)
    os._exit(3)


def direct_signature(spec):
    return fleet_signature([execute_shard(job) for job in spec.jobs()])


class TestWidthTwoLaw:
    def test_crashes_are_retried_within_each_run(self, tmp_path,
                                                 markers):
        specs = [spec_for((1, 2)), spec_for((3,))]
        runs, recorder = stored_runs(tmp_path, specs), Recorder()
        dispatch_runs(runs, workers=2, on_event=recorder,
                      shard_runner=crash_once_runner)
        check_law(runs, recorder)
        assert [status(run) for run in runs] == ["done", "done"]
        assert [run.retries for run in runs] == [2, 1]
        assert len(recorder.starts) == 6  # every shard ran twice

    def test_a_hang_is_timed_out_and_retried(self, markers):
        runs, recorder = [ShardRun(tuple(spec_for((1,)).jobs()))], \
            Recorder()
        dispatch_runs(runs, workers=2, on_event=recorder,
                      shard_runner=hang_once_runner, shard_timeout=1.0)
        check_law(runs, recorder)
        assert status(runs[0]) == "done"
        assert recorder.count(recorder.retries, runs[0]) == 1

    def test_a_failing_run_costs_the_others_nothing(self, tmp_path):
        specs = [spec_for((1, 2)),
                 spec_for((1, 2, 3), services=("quorum_kv",))]
        runs = stored_runs(tmp_path, specs, max_retries=1)
        recorder = Recorder()
        dispatch_runs(runs, workers=2, on_event=recorder,
                      shard_runner=crash_blogger_runner)
        check_law(runs, recorder)
        assert status(runs[0]) == "failed"
        assert "failed after 2 attempts" in runs[0].halt
        assert status(runs[1]) == "done"
        merged = [runs[1].results[job.index] for job in runs[1].jobs]
        assert fleet_signature(merged) == direct_signature(specs[1])

    def test_an_attempt_that_outlives_its_run_is_abandoned(self):
        # Both shards are in flight when the first one's exception
        # fails the run; the second one's crash must not be queued for
        # a retry nobody will dispatch, nor reported as one.
        runs, recorder = [ShardRun(tuple(spec_for((1, 2)).jobs()))], \
            Recorder()
        dispatch_runs(runs, workers=2, on_event=recorder,
                      shard_runner=fail_fast_or_crash_late_runner)
        check_law(runs, recorder)
        assert len(recorder.starts) == 2
        assert "deterministic campaign failure" in runs[0].halt
        assert not recorder.retries and runs[0].retries == 0

    def test_pause_parks_cancel_discards_and_a_second_pass_finishes(
            self, tmp_path):
        specs = [spec_for((1, 2, 3, 4)), spec_for((5, 6, 7)),
                 spec_for((8,))]
        runs, recorder = stored_runs(tmp_path, specs), Recorder()
        polls = Counter()

        def control(run):
            # Let each run start something, then stop the first two.
            polls[id(run)] += 1
            if polls[id(run)] < 2:
                return "run"
            return {id(runs[0]): "pause",
                    id(runs[1]): "cancel"}.get(id(run), "run")

        dispatch_runs(runs, workers=2, on_event=recorder,
                      control=control)
        check_law(runs, recorder)
        assert [status(run) for run in runs] == \
            ["paused", "cancelled", "done"]
        assert runs[0].queue and not runs[1].queue

        again, recorder = stored_runs(tmp_path, specs[:1]), Recorder()
        dispatch_runs(again, workers=2, on_event=recorder)
        check_law(again, recorder)
        assert status(again[0]) == "done"
        assert set(again[0].skipped) == {
            job.shard_id for job in runs[0].jobs
            if job.index in runs[0].results}
        merged = [again[0].results[job.index] for job in again[0].jobs]
        assert fleet_signature(merged) == direct_signature(specs[0])

