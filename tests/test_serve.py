"""Tests for the campaign service: hunts, scheduling, and the API.

The load-bearing assertions mirror the fleet suite's: a hunt executed
through the service — whatever the pool width or pause/resume
history — must produce an artifact store and merged
``fleet_signature`` byte-identical to a direct ``run_fleet`` of the
same spec.  Around that sit the lifecycle state machine, the
digest-validated hunt store, bounded crash retry, and the HTTP-shaped
API surface (auth, pagination, event-feed cursors).

Worker-failure runners are module-level (they cross the process
boundary) and coordinate through marker files in a directory passed
via an environment variable, as in ``test_fleet``.
"""

import os
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import (
    ConfigurationError,
    FleetError,
    InvalidRequestError,
    NotFoundError,
)
from repro.fleet import FleetSpec, run_fleet
from repro.fleet.executor import ShardRun, execute_shard
from repro.methodology import CampaignConfig
from repro.obs.events import ShardRetried, feed_record, render_event
from repro.serve import (
    HUNT_STATUSES,
    TERMINAL_STATUSES,
    CampaignService,
    HuntServer,
    HuntSpec,
    HuntState,
    HuntStore,
    check_transition,
    follow_events,
    run_hunts,
)
from repro.serve import scheduler
from repro.serve.scheduler import window_verdicts
from tests.test_fleet import MARKER_ENV as FLEET_MARKER_ENV
from tests.test_fleet import hang_once_runner

MARKER_ENV = "REPRO_SERVE_TEST_MARKERS"

TINY = dict(num_tests=1, test_types=("test1",))


def _marker(job) -> Path:
    return Path(os.environ[MARKER_ENV]) / job.shard_id


def crash_once_runner(job):
    """Die without a result on each shard's first attempt."""
    marker = _marker(job)
    if not marker.exists():
        marker.write_text("crashed")
        os._exit(3)
    return execute_shard(job)


def crash_blogger_runner(job):
    """Every attempt at a blogger shard dies; others run normally."""
    if job.service == "blogger":
        os._exit(3)
    return execute_shard(job)


def failing_runner(job):
    raise ValueError("deterministic campaign failure")


def crash_once_verdicts(record):
    """The first worker to check a test dies; the rest report as usual."""
    marker = Path(os.environ[MARKER_ENV]) / "verdicts"
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return window_verdicts(record)
    os._exit(3)


@pytest.fixture
def markers(tmp_path, monkeypatch):
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    monkeypatch.setenv(MARKER_ENV, str(marker_dir))
    return marker_dir


class TestHuntModel:
    def test_lifecycle_tables_are_consistent(self):
        assert set(HUNT_STATUSES) - TERMINAL_STATUSES == {
            "queued", "running", "paused",
        }
        check_transition("queued", "running")
        check_transition("running", "paused")
        check_transition("paused", "queued")
        for terminal in TERMINAL_STATUSES:
            with pytest.raises(InvalidRequestError):
                check_transition(terminal, "running")
        with pytest.raises(InvalidRequestError):
            check_transition("queued", "done")  # must pass running

    def test_spec_round_trip_and_fleet_spec(self):
        spec = HuntSpec(services=("blogger", "quorum_kv"),
                        seeds=(1, 2), num_tests=5,
                        test_types=("test1",))
        assert HuntSpec.from_dict(spec.to_dict()) == spec
        fleet = spec.fleet_spec()
        assert isinstance(fleet, FleetSpec)
        assert fleet.total_shards == spec.total_shards == 4
        assert fleet.base_config.num_tests == 5

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            HuntSpec(services=())
        with pytest.raises(ConfigurationError):
            HuntSpec(services=("blogger",), num_tests=0)
        with pytest.raises(InvalidRequestError):
            HuntSpec.from_dict({})
        with pytest.raises(InvalidRequestError):
            HuntSpec.from_dict({"services": "blogger"})

    def test_state_round_trip_and_advance(self):
        spec = HuntSpec(services=("blogger",), **TINY)
        state = HuntState(hunt_id="h0000", spec=spec,
                          shards_total=1, owner="alice")
        assert HuntState.from_dict(state.to_dict()) == state
        running = state.advance("running")
        assert running.status == "running"
        assert not running.is_terminal
        done = running.advance("done", shards_done=1,
                               fleet_signature="f" * 64)
        assert done.is_terminal
        assert done.shards_done == done.shards_total
        with pytest.raises(InvalidRequestError):
            done.advance("running")
        with pytest.raises(ConfigurationError):
            HuntState(hunt_id="x", spec=spec, status="bogus")


class TestHuntStore:
    def test_save_load_round_trip(self, tmp_path):
        store = HuntStore(tmp_path)
        spec = HuntSpec(services=("blogger",), **TINY)
        state = HuntState(hunt_id="h0000", spec=spec, shards_total=1)
        store.save(state)
        assert store.exists("h0000")
        assert store.load("h0000") == state
        assert store.hunt_ids() == ["h0000"]
        assert store.next_seq() == 1

    def test_load_missing_hunt_raises(self, tmp_path):
        with pytest.raises(NotFoundError):
            HuntStore(tmp_path).load("h9999")

    def test_corrupt_state_fails_digest_validation(self, tmp_path):
        store = HuntStore(tmp_path)
        spec = HuntSpec(services=("blogger",), **TINY)
        store.save(HuntState(hunt_id="h0000", spec=spec))
        path = store.state_path("h0000")
        path.write_text(
            path.read_text().replace('"queued"', '"running"')
        )
        with pytest.raises(FleetError, match="digest"):
            store.load("h0000")

    def test_event_seq_is_monotonic_and_cursorable(self, tmp_path):
        store = HuntStore(tmp_path)
        spec = HuntSpec(services=("blogger",), **TINY)
        store.save(HuntState(hunt_id="h0000", spec=spec))
        for index in range(4):
            record = store.append_event("h0000", "tick", index=index)
            assert record["seq"] == index
        tail = list(store.events("h0000", after=1))
        assert [record["seq"] for record in tail] == [2, 3]
        assert [record["index"] for record in tail] == [2, 3]

    def test_append_cost_does_not_grow_with_the_feed(self, tmp_path):
        # A streaming hunt appends one event per test (8,000 at paper
        # scale); re-reading the feed on every append was quadratic —
        # these 2,000 took ~10 s.
        store = HuntStore(tmp_path)
        started = time.perf_counter()
        for index in range(2000):
            record = store.append_event("h0000", "tick", index=index)
        assert time.perf_counter() - started < 5.0
        assert record["seq"] == 1999
        store.save(HuntState(hunt_id="h0000", spec=HuntSpec(
            services=("blogger",), **TINY)))
        assert [r["seq"] for r in store.events("h0000")] == \
            list(range(2000))

    def test_foreign_append_is_still_sequenced(self, tmp_path):
        # Another process (a CLI verb on a served root) appends between
        # two of ours: the size on disk no longer matches what this
        # store left, so it re-validates instead of trusting its memo.
        ours, theirs = HuntStore(tmp_path), HuntStore(tmp_path)
        assert ours.append_event("h0000", "tick")["seq"] == 0
        assert theirs.append_event("h0000", "tock")["seq"] == 1
        assert ours.append_event("h0000", "tick")["seq"] == 2
        assert theirs.append_event("h0000", "tock")["seq"] == 3
        # ... and a foreign tail that is torn fails closed before a
        # seq is handed out, memo or not.
        with ours.events_path("h0000").open("a") as handle:
            handle.write('{"seq": 4, "event": "to')
        for store in (ours, theirs):
            with pytest.raises(FleetError, match="events.jsonl:5"):
                store.append_event("h0000", "tick")

    def test_artifact_bytes_is_traversal_safe(self, tmp_path):
        store = HuntStore(tmp_path)
        spec = HuntSpec(services=("blogger",), **TINY)
        store.save(HuntState(hunt_id="h0000", spec=spec))
        (tmp_path / "secret.txt").write_text("nope")
        with pytest.raises(NotFoundError):
            store.artifact_bytes("h0000", "../../secret.txt")


class TestServiceLifecycle:
    def test_submit_runs_to_done_and_matches_direct_fleet(
            self, tmp_path):
        service = CampaignService(tmp_path / "serve")
        spec = HuntSpec(services=("blogger",), seeds=(1, 2), **TINY)
        state = service.submit(spec, owner="alice")
        assert state.status == "queued"
        assert state.shards_total == 2
        outcomes = service.run_pending()
        assert [outcome.status for outcome in outcomes] == ["done"]

        direct = run_fleet(spec.fleet_spec(), jobs=1,
                           out_dir=tmp_path / "direct")
        final = service.hunt(state.hunt_id)
        assert final.status == "done"
        assert final.shards_done == 2
        assert final.fleet_signature == direct.signature()

        # Byte-identical artifact stores, file for file.
        direct_root = tmp_path / "direct"
        names = service.artifact_names(state.hunt_id)
        direct_names = sorted(
            str(path.relative_to(direct_root))
            for path in direct_root.rglob("*") if path.is_file()
        )
        assert names == direct_names
        for name in names:
            assert service.artifact_bytes(state.hunt_id, name) == \
                (direct_root / name).read_bytes()

    def test_hunt_obs_matches_the_offline_merge(self, tmp_path):
        from repro.obs import merge_obs_snapshots

        service = CampaignService(tmp_path)
        spec = HuntSpec(services=("blogger",), seeds=(1, 2), **TINY)
        state = service.submit(spec)
        # Pre-pass: no artifact store yet, so the merge is empty.
        before = service.hunt_obs(state.hunt_id)
        assert before["shards"] == [] and before["missing"] == []
        service.run_pending()

        served = service.hunt_obs(state.hunt_id)
        artifact_store = service.store.artifact_store(state.hunt_id)
        jobs = spec.fleet_spec().jobs()
        offline = merge_obs_snapshots(
            artifact_store.load_shard_obs(job.shard_id)
            for job in jobs
        )
        assert served["shards"] == [job.shard_id for job in jobs]
        assert served["missing"] == []
        # Byte-identical to merging the artifact directory offline.
        assert served["snapshot"] == offline

        # A damaged obs export degrades to "missing", never an error.
        artifact_store.obs_path(jobs[0].shard_id).write_text(
            "not json", encoding="utf-8"
        )
        degraded = service.hunt_obs(state.hunt_id)
        assert degraded["missing"] == [jobs[0].shard_id]
        assert degraded["shards"] == [jobs[1].shard_id]

    def test_pause_checkpoints_and_resume_completes(self, tmp_path):
        service = CampaignService(tmp_path)
        spec = HuntSpec(services=("blogger",), seeds=(1, 2, 3), **TINY)
        hunt_id = service.submit(spec).hunt_id

        def pause_after_first(job):
            result = execute_shard(job)
            service._control[hunt_id] = "pause"
            return result

        outcomes = service.run_pending(shard_runner=pause_after_first)
        assert outcomes[0].status == "paused"
        paused = service.hunt(hunt_id)
        assert paused.status == "paused"
        assert 1 <= paused.shards_done < 3

        # Paused hunts are not runnable; a pass is a no-op.
        assert service.runnable_hunts() == []
        assert service.run_pending() == []

        executed = []

        def counting_runner(job):
            executed.append(job.shard_id)
            return execute_shard(job)

        service.resume(hunt_id)
        outcomes = service.run_pending(shard_runner=counting_runner)
        assert outcomes[0].status == "done"
        final = service.hunt(hunt_id)
        assert final.shards_done == 3
        # Checkpoint/resume: completed shards were never re-run.
        assert len(executed) == 3 - paused.shards_done
        direct = run_fleet(spec.fleet_spec(), jobs=1)
        assert final.fleet_signature == direct.signature()

    def test_cancel_discards_remaining_shards(self, tmp_path):
        service = CampaignService(tmp_path)
        hunt_id = service.submit(
            HuntSpec(services=("blogger",), **TINY)
        ).hunt_id
        cancelled = service.cancel(hunt_id)
        assert cancelled.status == "cancelled"
        assert service.run_pending() == []
        with pytest.raises(InvalidRequestError):
            service.resume(hunt_id)

    def test_resume_requires_paused(self, tmp_path):
        service = CampaignService(tmp_path)
        hunt_id = service.submit(
            HuntSpec(services=("blogger",), **TINY)
        ).hunt_id
        with pytest.raises(InvalidRequestError):
            service.resume(hunt_id)

    def test_campaign_exception_fails_only_that_hunt(self, tmp_path):
        service = CampaignService(tmp_path)
        bad = service.submit(
            HuntSpec(services=("blogger",), **TINY)
        ).hunt_id
        good = service.submit(
            HuntSpec(services=("quorum_kv",), **TINY)
        ).hunt_id

        def runner(job):
            if job.service == "blogger":
                raise ValueError("deterministic campaign failure")
            return execute_shard(job)

        outcomes = {outcome.hunt_id: outcome
                    for outcome in service.run_pending(
                        shard_runner=runner)}
        assert outcomes[bad].status == "failed"
        assert "campaign failed" in outcomes[bad].error
        assert outcomes[good].status == "done"
        assert service.hunt(bad).status == "failed"
        assert service.hunt(good).fleet_signature is not None

    def test_crashed_pass_resumes_from_store(self, tmp_path):
        """A 'running' hunt left by a dead pass is picked up again."""
        service = CampaignService(tmp_path)
        spec = HuntSpec(services=("blogger",), seeds=(1, 2), **TINY)
        hunt_id = service.submit(spec).hunt_id
        # Simulate a pass that died mid-hunt: state says running, one
        # shard's artifacts are on disk.
        state = service.hunt(hunt_id)
        service.store.save(state.advance("running"))
        artifact_store = service.store.artifact_store(hunt_id)
        fleet_spec = spec.fleet_spec()
        artifact_store.initialize(fleet_spec)
        first_job = fleet_spec.jobs()[0]
        result = execute_shard(first_job)
        from repro.fleet.pool import records_to_jsonable
        artifact_store.write_shard(
            first_job, records_to_jsonable(result), obs=result.obs)

        assert [s.hunt_id for s in service.runnable_hunts()] == \
            [hunt_id]
        outcomes = service.run_pending()
        assert outcomes[0].status == "done"
        assert outcomes[0].skipped == (first_job.shard_id,)
        direct = run_fleet(spec.fleet_spec(), jobs=1)
        assert service.hunt(hunt_id).fleet_signature == \
            direct.signature()


class TestStreamingHunts:
    def _checked_events(self, service, hunt_id):
        return [record for record in service.events(hunt_id)
                if record["event"] == "test.checked"]

    def test_stream_hunt_feeds_window_verdicts(self, tmp_path):
        spec = HuntSpec(services=("blogger",), seeds=(1,),
                        stream=True, **TINY)
        service = CampaignService(tmp_path / "stream")
        state = service.submit(spec)
        outcomes = service.run_pending()
        assert [outcome.status for outcome in outcomes] == ["done"]

        checked = self._checked_events(service, state.hunt_id)
        assert len(checked) == 1  # num_tests=1, one shard
        event = checked[0]
        assert event["shard_id"] and event["test_id"]
        assert set(event["windows"]) == {"content", "order"}
        for results in event["windows"].values():
            for result in results:
                assert set(result) == {"pair", "intervals",
                                       "converged"}

        # Streaming is an execution detail: the merged signature is
        # the batch hunt's, byte for byte.
        batch = CampaignService(tmp_path / "batch")
        batch_state = batch.submit(
            HuntSpec(services=("blogger",), seeds=(1,), **TINY)
        )
        batch.run_pending()
        assert service.hunt(state.hunt_id).fleet_signature == \
            batch.hunt(batch_state.hunt_id).fleet_signature

    def test_stream_hunt_pool_path_emits_interim_verdicts(
            self, tmp_path):
        spec = HuntSpec(services=("blogger",), seeds=(1, 2),
                        stream=True, **TINY)
        service = CampaignService(tmp_path, workers=2)
        state = service.submit(spec)
        outcomes = service.run_pending()
        assert [outcome.status for outcome in outcomes] == ["done"]

        checked = self._checked_events(service, state.hunt_id)
        assert len(checked) == 2  # one per shard at num_tests=1
        assert {record["shard_id"] for record in checked} == {
            job.shard_id for job in spec.fleet_spec().jobs()
        }
        direct = run_fleet(spec.fleet_spec(), jobs=1)
        assert service.hunt(state.hunt_id).fleet_signature == \
            direct.signature()


class TestSchedulerPool:
    def test_stealing_and_sequential_agree_with_serial(self, tmp_path):
        spec = HuntSpec(services=("blogger", "quorum_kv"),
                        seeds=(1,), **TINY)
        service = CampaignService(tmp_path, workers=2)
        hunt_id = service.submit(spec).hunt_id
        outcomes = service.run_pending()
        assert outcomes[0].status == "done"
        direct = run_fleet(spec.fleet_spec(), jobs=1)
        assert service.hunt(hunt_id).fleet_signature == \
            direct.signature()

    def test_concurrent_hunts_all_complete(self, tmp_path):
        service = CampaignService(tmp_path, workers=2)
        specs = [
            HuntSpec(services=("blogger",), seeds=(1, 2), **TINY),
            HuntSpec(services=("quorum_kv",), **TINY),
            HuntSpec(services=("googleplus",), **TINY),
        ]
        ids = [service.submit(spec).hunt_id for spec in specs]
        outcomes = {outcome.hunt_id: outcome
                    for outcome in service.run_pending()}
        for hunt_id, spec in zip(ids, specs):
            assert outcomes[hunt_id].status == "done"
            direct = run_fleet(spec.fleet_spec(), jobs=1)
            assert service.hunt(hunt_id).fleet_signature == \
                direct.signature()

    def test_worker_crash_is_retried(self, tmp_path, markers):
        service = CampaignService(tmp_path, workers=2)
        spec = HuntSpec(services=("blogger",), seeds=(1, 2), **TINY)
        hunt_id = service.submit(spec).hunt_id
        outcomes = service.run_pending(shard_runner=crash_once_runner)
        assert outcomes[0].status == "done"
        assert outcomes[0].retries == 2  # one crash per shard
        final = service.hunt(hunt_id)
        assert final.retries == 2
        direct = run_fleet(spec.fleet_spec(), jobs=1)
        assert final.fleet_signature == direct.signature()

    def test_hung_worker_times_out_and_is_retried(self, markers,
                                                  monkeypatch):
        monkeypatch.setenv(FLEET_MARKER_ENV, str(markers))
        spec = HuntSpec(services=("blogger",), **TINY).fleet_spec()
        events = []
        outcomes = run_hunts(
            [ShardRun(tuple(spec.jobs()), hunt_id="h0000")],
            workers=2, shard_timeout=1.0,
            shard_runner=hang_once_runner, on_event=events.append,
        )
        retried = [e for e in events if isinstance(e, ShardRetried)]
        assert len(retried) == 1
        assert "timed out" in retried[0].reason
        assert outcomes[0].status == "done"
        assert outcomes[0].retries == 1
        assert outcomes[0].signature() == run_fleet(spec).signature()

    def test_retry_budget_exhaustion_fails_hunt_only(self, tmp_path):
        service = CampaignService(tmp_path, workers=2, max_retries=1)
        bad = service.submit(
            HuntSpec(services=("blogger",), **TINY)
        ).hunt_id
        good = service.submit(
            HuntSpec(services=("quorum_kv",), **TINY)
        ).hunt_id
        outcomes = {outcome.hunt_id: outcome
                    for outcome in service.run_pending(
                        shard_runner=crash_blogger_runner)}
        assert outcomes[bad].status == "failed"
        assert "attempts" in outcomes[bad].error
        assert outcomes[good].status == "done"


class TestHuntServerApi:
    @pytest.fixture
    def server(self, tmp_path):
        return HuntServer(tmp_path)

    @pytest.fixture
    def token(self, server):
        return server.issue_token()

    def _submit(self, server, token, **overrides):
        params = {"services": ["blogger"], "seeds": [1],
                  "num_tests": 1, "test_types": ["test1"]}
        params.update(overrides)
        response = server.handle("POST", "/v1/hunts", params=params,
                                 token=token)
        assert response.status == 200
        return response.body["hunt_id"]

    def test_requires_auth(self, server):
        assert server.handle("GET", "/v1/hunts").status == 401
        assert server.handle("GET", "/v1/hunts",
                             token="bogus").status == 401

    def test_unknown_route_is_404(self, server, token):
        assert server.handle("GET", "/v1/nope",
                             token=token).status == 404
        assert server.handle("GET", "/v2/hunts",
                             token=token).status == 404

    def test_unknown_hunt_is_404(self, server, token):
        response = server.handle("GET", "/v1/hunts/h9999",
                                 token=token)
        assert response.status == 404

    def test_submit_validates_params(self, server, token):
        response = server.handle("POST", "/v1/hunts",
                                 params={}, token=token)
        assert response.status == 400

    def test_submit_status_and_owner(self, server, token):
        hunt_id = self._submit(server, token)
        body = server.handle("GET", f"/v1/hunts/{hunt_id}",
                             token=token).body
        assert body["status"] == "queued"
        assert body["shards_total"] == 1
        assert server.service.hunt(hunt_id).owner == "operator"

    def test_illegal_transition_is_400(self, server, token):
        hunt_id = self._submit(server, token)
        assert server.handle(
            "POST", f"/v1/hunts/{hunt_id}/resume", token=token,
        ).status == 400

    def test_list_paginates(self, server, token):
        ids = [self._submit(server, token) for _ in range(3)]
        first = server.handle("GET", "/v1/hunts",
                              params={"limit": 2}, token=token).body
        assert [item["hunt_id"] for item in first["hunts"]] == ids[:2]
        rest = server.handle(
            "GET", "/v1/hunts",
            params={"limit": 2, "cursor": first["next_cursor"]},
            token=token,
        ).body
        assert [item["hunt_id"] for item in rest["hunts"]] == ids[2:]
        assert rest["next_cursor"] is None

    def test_results_page_through_records(self, server, token):
        hunt_id = self._submit(server, token, seeds=[1, 2])
        server.run_pending()
        page = server.handle(
            "GET", f"/v1/hunts/{hunt_id}/results",
            params={"limit": 1}, token=token,
        ).body
        assert len(page["items"]) == 1
        assert page["next_cursor"] is not None
        keys = [page["items"][0]["key"]]
        while page["next_cursor"] is not None:
            page = server.handle(
                "GET", f"/v1/hunts/{hunt_id}/results",
                params={"limit": 1, "cursor": page["next_cursor"]},
                token=token,
            ).body
            keys += [item["key"] for item in page["items"]]
        assert len(keys) == len(set(keys)) == 2
        assert all("record" in item for item in page["items"])

    def test_event_feed_cursor_and_done(self, server, token):
        hunt_id = self._submit(server, token)
        body = server.handle(
            "GET", f"/v1/hunts/{hunt_id}/events", token=token,
        ).body
        assert body["events"][0]["event"] == "hunt.submitted"
        assert not body["done"]
        server.run_pending()
        body = server.handle(
            "GET", f"/v1/hunts/{hunt_id}/events",
            params={"after": body["last_seq"]}, token=token,
        ).body
        kinds = [record["event"] for record in body["events"]]
        assert "shard.completed" in kinds
        assert kinds[-1] == "hunt.state"
        # Feed drained on a terminal hunt: done flips on the empty page.
        final = server.handle(
            "GET", f"/v1/hunts/{hunt_id}/events",
            params={"after": body["last_seq"]}, token=token,
        ).body
        assert final["events"] == []
        assert final["done"]

    def test_follow_events_drives_scheduling(self, server, token):
        hunt_id = self._submit(server, token)
        records = list(follow_events(server, hunt_id, token,
                                     poll=server.run_pending))
        kinds = [record["event"] for record in records]
        assert kinds[0] == "hunt.submitted"
        assert kinds[-1] == "hunt.state"
        assert server.service.hunt(hunt_id).status == "done"
        # seq is strictly monotonic across the whole feed.
        seqs = [record["seq"] for record in records]
        assert seqs == sorted(set(seqs))

    def test_artifact_browse_and_content(self, server, token):
        hunt_id = self._submit(server, token)
        server.run_pending()
        names = server.handle(
            "GET", f"/v1/hunts/{hunt_id}/artifacts", token=token,
        ).body["artifacts"]
        assert "manifest.json" in names
        body = server.handle(
            "GET", f"/v1/hunts/{hunt_id}/artifact",
            params={"name": "manifest.json"}, token=token,
        ).body
        assert '"spec_hash"' in body["content"]
        assert server.handle(
            "GET", f"/v1/hunts/{hunt_id}/artifact",
            params={"name": "../hunt.json"}, token=token,
        ).status == 404

    def test_rate_limit_applies_to_api(self, tmp_path):
        from repro.webapi import RateLimit

        server = HuntServer(tmp_path, rate_limit=RateLimit(
            max_requests=2, window=60.0))
        token = server.issue_token()
        assert server.handle("GET", "/v1/hunts",
                             token=token).status == 200
        assert server.handle("GET", "/v1/hunts",
                             token=token).status == 200
        throttled = server.handle("GET", "/v1/hunts", token=token)
        assert throttled.status == 429
        assert "retry_after" in throttled.body

    def test_stats_account_requests_and_statuses(self, server, token):
        server.handle("GET", "/v1/hunts", token=token)
        server.handle("GET", "/v1/nope", token=token)
        stats = server.api.stats
        assert stats.requests_total == 2
        assert stats.responses_by_status[200] == 1
        assert stats.responses_by_status[404] == 1


class TestEventFeed:
    """A hunt's feed is its event sequence, and ``done`` is final."""

    @pytest.fixture
    def server(self, tmp_path):
        return HuntServer(tmp_path)

    @pytest.fixture
    def token(self, server):
        return server.issue_token()

    def _submit(self, server, token, seeds=(1,)):
        return server.handle("POST", "/v1/hunts", params={
            "services": ["blogger"], "seeds": list(seeds),
            "num_tests": 1, "test_types": ["test1"],
        }, token=token).raise_for_status().body["hunt_id"]

    def _page_to_end(self, server, token, hunt_id, after=-1):
        """Every record after ``after``, and the empty page's ``done``."""
        records = []
        while True:
            body = server.handle(
                "GET", f"/v1/hunts/{hunt_id}/events",
                params={"after": after}, token=token,
            ).raise_for_status().body
            records += body["events"]
            after = body["last_seq"]
            if not body["events"]:
                return records, body["done"]

    def test_done_waits_for_the_shard_a_cancel_left_running(
            self, server, token):
        hunt_id = self._submit(server, token, seeds=(1, 2))
        polled = []

        def cancelling_runner(job):
            if not polled:
                server.handle("POST", f"/v1/hunts/{hunt_id}/cancel",
                              token=token).raise_for_status()
                polled.append(self._page_to_end(server, token, hunt_id))
            return execute_shard(job)

        server.run_pending(shard_runner=cancelling_runner)
        (records, done), = polled
        assert records[-1]["event"] == "hunt.state"
        assert records[-1]["status"] == "cancelled"
        assert not done  # this very shard will still be recorded
        rest, done = self._page_to_end(server, token, hunt_id,
                                       after=records[-1]["seq"])
        assert [record["event"] for record in rest] == \
            ["shard.completed"]
        assert done

    def test_a_terminal_state_is_never_read_before_its_record(
            self, server, token, monkeypatch):
        hunt_id = self._submit(server, token)
        save, polled = server.service.store.save, []

        def save_then_poll(state):
            save(state)
            if state.is_terminal:
                polled.append(self._page_to_end(server, token, hunt_id))

        monkeypatch.setattr(server.service.store, "save", save_then_poll)
        server.handle("POST", f"/v1/hunts/{hunt_id}/cancel",
                      token=token).raise_for_status()
        (records, done), = polled
        assert done
        assert records[-1]["event"] == "hunt.state"
        assert records[-1]["status"] == "cancelled"

    def test_followers_racing_a_pass_see_the_whole_feed(self, server,
                                                         token):
        hunt_ids = [self._submit(server, token, seeds=(1, 2))
                    for _ in range(3)]
        followed = {}

        def follow(hunt_id):
            records = []
            while True:
                more, done = self._page_to_end(
                    server, token, hunt_id,
                    after=records[-1]["seq"] if records else -1)
                records += more
                if done:
                    followed[hunt_id] = records
                    return

        def cancelling_runner(job):
            server.handle("POST", f"/v1/hunts/{hunt_ids[1]}/cancel",
                          token=token)  # 400 once it is cancelled
            return execute_shard(job)

        followers = [threading.Thread(target=follow, args=(hunt_id,))
                     for hunt_id in hunt_ids]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for follower in followers:
                follower.start()
            server.run_pending(shard_runner=cancelling_runner)
            for follower in followers:
                follower.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(follower.is_alive() for follower in followers)
        for hunt_id in hunt_ids:
            assert followed[hunt_id] == list(server.service.events(hunt_id))
        assert [server.service.hunt(hunt_id).status
                for hunt_id in hunt_ids] == ["done", "cancelled", "done"]

    def test_the_terminal_record_says_how_the_hunt_ended(self, tmp_path):
        service = CampaignService(tmp_path)
        bad = service.submit(HuntSpec(services=("blogger",), **TINY))
        good = service.submit(HuntSpec(services=("quorum_kv",), **TINY))

        def runner(job):
            if job.service == "blogger":
                failing_runner(job)
            return execute_shard(job)

        service.run_pending(shard_runner=runner)
        *_, done = service.events(good.hunt_id)
        assert (done["event"], done["status"]) == ("hunt.state", "done")
        assert done["signature"] == \
            service.hunt(good.hunt_id).fleet_signature
        *_, failed = service.events(bad.hunt_id)
        assert (failed["event"], failed["status"]) == \
            ("hunt.state", "failed")
        assert "deterministic campaign failure" in failed["error"]
        assert failed["error"] == service.hunt(bad.hunt_id).error

    def test_the_feed_is_the_event_sequence(self, tmp_path, markers,
                                            monkeypatch):
        # A streaming hunt on two workers, one of which dies while
        # checking a test: its shard is retried.
        monkeypatch.setattr(scheduler, "window_verdicts",
                            crash_once_verdicts)
        events = []
        service = CampaignService(tmp_path, workers=2,
                                  on_event=events.append)
        hunt_id = service.submit(HuntSpec(
            services=("blogger",), seeds=(1, 2), stream=True, **TINY,
        )).hunt_id
        outcomes = service.run_pending()
        assert [(outcome.status, outcome.retries)
                for outcome in outcomes] == [("done", 1)]

        feed = [{key: value for key, value in record.items()
                 if key != "seq"}
                for record in service.events(hunt_id)]
        assert [feed_record(event) for event in events] == feed
        assert all(render_event(event).startswith(f"hunt {hunt_id}: ")
                   for event in events)
        kinds = [record["event"] for record in feed]
        assert kinds.count("shard.started") == 3
        assert kinds.count("shard.retried") == 1
        assert kinds.count("test.checked") == 2
        assert kinds.count("shard.completed") == 2
