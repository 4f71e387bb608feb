"""Tests for the work pool (repro.fleet.pool) on its own.

``run_fleet`` is tested through its public surface elsewhere; here the pool's own contract is pinned with stub
runners: every pooled attempt ends as exactly one of *result*,
*error* (deterministic, raised inside the campaign) or *failure*
(environmental: crash, timeout), and the in-process ``run_shard`` is
the same execution without the process.

The stub runners are module-level so they can cross the process
boundary.
"""

import os
import time

import pytest

from repro.fleet import FleetSpec
from repro.fleet.pool import ShardTask, WorkPool, run_shard
from repro.methodology import CampaignConfig
from repro.methodology.runner import CampaignResult

JOB = FleetSpec(
    services=("blogger",),
    base_config=CampaignConfig(num_tests=2, seed=0,
                               test_types=("test1",)),
    seeds=(1,),
).jobs()[0]


def ok_runner(job):
    return CampaignResult(service=job.service, config=job.config)


def raising_runner(job):
    raise ValueError("boom")


def exiting_runner(job):
    os._exit(3)


def hanging_runner(job):
    time.sleep(60.0)


def shout(record):
    return {"shouted": record.test_id.upper()}


def ignore_test(task, message):
    raise AssertionError("batch tasks send no interim messages")


class TestClassification:
    def test_every_attempt_ends_exactly_one_way(self):
        cases = (
            dict(runner=ok_runner, kind="result", detail=""),
            dict(runner=raising_runner, kind="error",
                 detail="ValueError: boom"),
            dict(runner=exiting_runner, kind="failure",
                 detail="worker crashed (exit code 3)"),
            dict(runner=hanging_runner, kind="failure",
                 detail="timed out after 0.5s"),
        )
        ended = {}
        give_up = time.monotonic() + 30.0
        with WorkPool(ignore_test, timeout=0.5) as pool:
            for index, case in enumerate(cases):
                pool.submit(ShardTask(JOB, runner=case["runner"],
                                      attempt=index + 1))
            assert pool.in_flight == len(cases)
            while pool.in_flight and time.monotonic() < give_up:
                for done in pool.wait():
                    ended[done.task.attempt - 1] = done
        assert sorted(ended) == list(range(len(cases)))
        for index, case in enumerate(cases):
            done = ended[index]
            assert done.kind == case["kind"], case
            assert case["detail"] in done.detail, case
            # Only a result carries a result (and its wire records).
            assert (done.result is not None) == (done.kind == "result")
            assert (done.records is not None) == (done.kind == "result")
        assert ended[0].result.service == "blogger"
        assert ended[0].records == []

    def test_leaving_the_pool_terminates_what_is_in_flight(self):
        with WorkPool(ignore_test) as pool:
            pool.submit(ShardTask(JOB, runner=hanging_runner))
            assert pool.in_flight == 1
        assert pool.in_flight == 0


class TestRunShard:
    def test_streaming_task_reports_each_closed_test(self):
        seen = []
        task = ShardTask(JOB, verdicts=shout)
        result = run_shard(task, lambda *args: seen.append(args))
        assert [message["test_index"] for _, message in seen] == \
            list(range(len(result.records)))
        for (got_task, message), record in zip(seen, result.records):
            assert got_task is task
            assert message["test_id"] == record.test_id
            assert message["shouted"] == record.test_id.upper()
            assert set(message) == {"test_id", "test_index",
                                    "anomalies", "state_size",
                                    "shouted"}

    def test_campaign_exception_propagates_unwrapped(self):
        with pytest.raises(ValueError, match="boom"):
            run_shard(ShardTask(JOB, runner=raising_runner),
                      ignore_test)

    def test_pooled_streaming_matches_in_process(self):
        local, piped = [], []
        task = ShardTask(JOB, verdicts=shout)
        result = run_shard(task, lambda t, m: local.append(m))
        give_up = time.monotonic() + 60.0
        with WorkPool(lambda t, m: piped.append(m)) as pool:
            pool.submit(task)
            ended = []
            while pool.in_flight and time.monotonic() < give_up:
                ended.extend(pool.wait())
        assert [done.kind for done in ended] == ["result"]
        assert piped == local
        assert [r.test_id for r in ended[0].result.records] == \
            [r.test_id for r in result.records]
