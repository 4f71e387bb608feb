"""Tests for the fleet engine: spec expansion, parity, resume, retry.

The load-bearing assertions are the golden-signature ones: a fleet run
with ``jobs >= 2`` must produce records bit-identical (per canonical-
JSON digest) to the serial path for the same spec and seeds, and a
resumed fleet must complete without re-running finished shards.

Worker-failure fixtures (crash/hang runners) are module-level
functions so they can cross the process boundary; they coordinate
"fail only the first attempt" through marker files in a directory
passed via an environment variable, which child processes inherit.
"""

import os
import time
from pathlib import Path

import pytest

from repro.calibrate.claims import evaluate_seeds, fig3_lines
from repro.errors import ConfigurationError, FleetError
from repro.fleet import (
    ArtifactStore,
    FleetCompleted,
    FleetSpec,
    FleetStarted,
    ShardCompleted,
    ShardRetried,
    ShardSkipped,
    ShardStarted,
    ShardTestChecked,
    derive_fleet_seeds,
    execute_shard,
    fleet_signature,
    render_event,
    run_fleet,
)
from repro.methodology import CampaignConfig, run_campaign
from repro.replication import QuorumParams
from repro.services import QuorumKvParams

SMALL = CampaignConfig(num_tests=2, seed=0, test_types=("test1",))

MARKER_ENV = "REPRO_FLEET_TEST_MARKERS"


def _marker(job) -> Path:
    return Path(os.environ[MARKER_ENV]) / job.shard_id


def crash_once_runner(job):
    """Die without a result on each shard's first attempt."""
    marker = _marker(job)
    if not marker.exists():
        marker.write_text("crashed")
        os._exit(3)
    return execute_shard(job)


def hang_once_runner(job):
    """Hang (to be timed out) on each shard's first attempt."""
    marker = _marker(job)
    if not marker.exists():
        marker.write_text("hung")
        time.sleep(60.0)
    return execute_shard(job)


def crash_blogger_runner(job):
    """Every attempt at a blogger shard dies; others run normally."""
    if job.service == "blogger":
        os._exit(3)
    return execute_shard(job)


def failing_runner(job):
    raise ValueError("deterministic campaign failure")


class TestFleetSpec:
    def test_expansion_order_and_count(self):
        spec = FleetSpec(services=("blogger", "googleplus"),
                         base_config=SMALL, seeds=(1, 2))
        jobs = spec.jobs()
        assert len(jobs) == spec.total_shards == 4
        assert [(j.service, j.seed) for j in jobs] == [
            ("blogger", 1), ("blogger", 2),
            ("googleplus", 1), ("googleplus", 2),
        ]
        assert [j.index for j in jobs] == [0, 1, 2, 3]
        assert len({j.shard_id for j in jobs}) == 4
        assert all(j.config.seed == j.seed for j in jobs)

    def test_param_grid_axis(self):
        grid = (("weak", QuorumKvParams(
                    quorum=QuorumParams(1, 1))),
                ("strict", QuorumKvParams(
                    quorum=QuorumParams(2, 2))))
        spec = FleetSpec(services=("quorum_kv",), base_config=SMALL,
                         seeds=(7,), param_grid=grid)
        jobs = spec.jobs()
        assert [j.label for j in jobs] == ["weak", "strict"]
        assert jobs[0].config.service_params.quorum.read_quorum == 1
        assert jobs[1].config.service_params.quorum.read_quorum == 2

    def test_spec_hash_stable_and_discriminating(self):
        spec_a = FleetSpec(services=("blogger",), base_config=SMALL,
                           seeds=(1, 2))
        spec_b = FleetSpec(services=("blogger",), base_config=SMALL,
                           seeds=(1, 2))
        spec_c = FleetSpec(services=("blogger",), base_config=SMALL,
                           seeds=(1, 3))
        assert spec_a.spec_hash() == spec_b.spec_hash()
        assert spec_a.spec_hash() != spec_c.spec_hash()

    def test_rejects_bad_specs(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(services=(), base_config=SMALL)
        with pytest.raises(ConfigurationError):
            FleetSpec(services=("myspace",), base_config=SMALL)
        with pytest.raises(ConfigurationError):
            FleetSpec(services=("blogger",), base_config=SMALL,
                      seeds=())
        with pytest.raises(ConfigurationError):
            FleetSpec(services=("blogger",), base_config=SMALL,
                      seeds=(5, 5))
        with pytest.raises(ConfigurationError):
            FleetSpec(services=("blogger", "blogger"),
                      base_config=SMALL)

    def test_derive_fleet_seeds(self):
        seeds = derive_fleet_seeds(42, 4)
        assert seeds == derive_fleet_seeds(42, 4)
        assert len(set(seeds)) == 4
        assert seeds[:2] == derive_fleet_seeds(42, 2)
        assert seeds != derive_fleet_seeds(43, 4)
        with pytest.raises(ConfigurationError):
            derive_fleet_seeds(42, 0)


class TestSerialPath:
    def test_matches_direct_run_campaign(self):
        spec = FleetSpec(services=("blogger", "googleplus"),
                         base_config=SMALL, seeds=(1,))
        outcome = run_fleet(spec)
        direct = [run_campaign(job.service, job.config)
                  for job in spec.jobs()]
        assert outcome.signature() == fleet_signature(direct)
        assert [r.summary() for r in outcome.results] == \
            [r.summary() for r in direct]

    @pytest.mark.parametrize("stream", [False, True],
                             ids=["batch", "stream"])
    def test_keeps_traces_in_process(self, stream):
        config = CampaignConfig(num_tests=2, seed=0,
                                test_types=("test1",),
                                keep_traces=True)
        spec = FleetSpec(services=("blogger",), base_config=config,
                         seeds=(1,))
        outcome = run_fleet(spec, jobs=1, stream=stream)
        (result,) = outcome.results
        assert len(result.records) == 2
        assert all(record.trace is not None
                   and record.trace.test_id == record.test_id
                   for record in result.records)

    def test_rejects_bad_jobs(self):
        spec = FleetSpec(services=("blogger",), base_config=SMALL)
        with pytest.raises(ConfigurationError):
            run_fleet(spec, jobs=0)

    def test_parallel_rejects_keep_traces(self):
        config = CampaignConfig(num_tests=1, seed=0,
                                keep_traces=True)
        spec = FleetSpec(services=("blogger",), base_config=config,
                         seeds=(1, 2))
        with pytest.raises(ConfigurationError):
            run_fleet(spec, jobs=2)


class TestGoldenSignatureParity:
    """The acceptance criterion: parallel output is bit-identical."""

    def test_two_workers_match_serial(self):
        spec = FleetSpec(services=("blogger", "googleplus"),
                         base_config=SMALL, seeds=(1, 2))
        serial = run_fleet(spec, jobs=1)
        parallel = run_fleet(spec, jobs=2)
        assert parallel.signature() == serial.signature()
        assert [r.summary() for r in parallel.results] == \
            [r.summary() for r in serial.results]

    def test_parity_survives_the_store_round_trip(self, tmp_path):
        spec = FleetSpec(services=("googleplus",), base_config=SMALL,
                         seeds=(3, 4))
        serial = run_fleet(spec, jobs=1)
        stored = run_fleet(spec, jobs=2, out_dir=tmp_path / "store")
        resumed = run_fleet(spec, jobs=2, out_dir=tmp_path / "store")
        assert stored.signature() == serial.signature()
        assert resumed.signature() == serial.signature()

    def test_pooled_streaming_matches_serial_batch(self, tmp_path):
        spec = FleetSpec(services=("blogger", "googleplus"),
                         base_config=SMALL, seeds=(1, 2))
        events = []
        streamed = run_fleet(spec, jobs=2, stream=True,
                             out_dir=tmp_path, on_event=events.append)
        assert streamed.signature() == run_fleet(spec).signature()
        # One interim verdict per test, piped while shards ran, with
        # a contiguous 0-based index within each shard.
        for job in spec.jobs():
            checked = [e for e in events
                       if isinstance(e, ShardTestChecked)
                       and e.shard_id == job.shard_id]
            assert [e.test_index for e in checked] == \
                list(range(SMALL.num_tests))
            assert (tmp_path / "traces"
                    / f"{job.shard_id}.ops.jsonl").is_file()

    def test_replicate_parallel_matches_serial(self):
        spec = FleetSpec(services=("googleplus",), base_config=SMALL,
                         seeds=(1, 2))
        serial = run_fleet(spec)
        parallel = run_fleet(spec, jobs=2)
        assert fleet_signature(parallel.results) == \
            fleet_signature(serial.results)
        # Per-seed rows: equal per seed implies equal means.
        assert evaluate_seeds(parallel) == evaluate_seeds(serial)
        assert fig3_lines("googleplus", parallel.results) == \
            fig3_lines("googleplus", serial.results)

    def test_sweep_parallel_matches_serial(self):
        spec = FleetSpec(
            services=("quorum_kv",), base_config=SMALL,
            seeds=(SMALL.seed,),
            param_grid=(
                ("weak", QuorumKvParams(
                    quorum=QuorumParams(read_quorum=1, write_quorum=1)
                )),
                ("strict", QuorumKvParams(
                    quorum=QuorumParams(read_quorum=2, write_quorum=2)
                )),
            ),
        )
        serial = run_fleet(spec)
        parallel = run_fleet(spec, jobs=2)
        assert [job.label for job in parallel.jobs] == \
            [job.label for job in serial.jobs] == ["weak", "strict"]
        assert parallel.signature() == serial.signature()


class TestResume:
    def test_partial_store_runs_only_missing_shards(self, tmp_path):
        spec = FleetSpec(services=("blogger",), base_config=SMALL,
                         seeds=(1, 2, 3, 4))
        jobs = spec.jobs()
        # Pre-complete shards 0 and 2, as a killed run would have.
        store = ArtifactStore(tmp_path)
        store.initialize(spec)
        from repro.io import record_to_dict

        for job in (jobs[0], jobs[2]):
            result = execute_shard(job)
            store.write_shard(job, [record_to_dict(r)
                                    for r in result.records])
        events = []
        outcome = run_fleet(spec, jobs=2, out_dir=tmp_path,
                            on_event=events.append)
        skipped = {e.shard_id for e in events
                   if isinstance(e, ShardSkipped)}
        started = {e.shard_id for e in events
                   if isinstance(e, ShardStarted)}
        assert skipped == {jobs[0].shard_id, jobs[2].shard_id}
        assert started == {jobs[1].shard_id, jobs[3].shard_id}
        assert outcome.signature() == run_fleet(spec).signature()

    def test_corrupt_shard_is_rerun(self, tmp_path):
        spec = FleetSpec(services=("blogger",), base_config=SMALL,
                         seeds=(1, 2))
        first = run_fleet(spec, jobs=1, out_dir=tmp_path)
        victim = spec.jobs()[0]
        path = ArtifactStore(tmp_path).shard_path(victim.shard_id)
        path.write_text(path.read_text()[:-20])  # truncate
        events = []
        again = run_fleet(spec, jobs=1, out_dir=tmp_path,
                          on_event=events.append)
        assert again.executed == (victim.shard_id,)
        assert len(again.skipped) == 1
        assert again.signature() == first.signature()

    def test_resume_parses_no_telemetry(self, tmp_path, monkeypatch):
        """Resume decodes records only; each restored shard's obs
        snapshot is parsed once, when ``merged_obs()`` asks for it."""
        import repro.obs.export

        spec = FleetSpec(services=("blogger", "googleplus"),
                         base_config=SMALL, seeds=(1, 2))
        fresh = run_fleet(spec, out_dir=tmp_path)
        calls = []
        load_snapshot = repro.obs.export.load_snapshot

        def counting(path):
            calls.append(path)
            return load_snapshot(path)

        monkeypatch.setattr(repro.obs.export, "load_snapshot", counting)
        outcome = run_fleet(spec, out_dir=tmp_path)
        assert outcome.signature() == fresh.signature()
        assert len(outcome.skipped) == spec.total_shards == 4
        assert calls == []
        merged = outcome.merged_obs()
        assert len(calls) == len(outcome.skipped)
        assert merged == fresh.merged_obs()

    def test_store_bound_to_other_spec_rejected(self, tmp_path):
        spec = FleetSpec(services=("blogger",), base_config=SMALL,
                         seeds=(1,))
        other = FleetSpec(services=("blogger",), base_config=SMALL,
                          seeds=(2,))
        run_fleet(spec, out_dir=tmp_path)
        with pytest.raises(FleetError):
            run_fleet(other, out_dir=tmp_path)


class TestWorkerFailures:
    @pytest.fixture()
    def markers(self, tmp_path, monkeypatch):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        monkeypatch.setenv(MARKER_ENV, str(marker_dir))
        return marker_dir

    def test_crashed_worker_is_retried(self, markers):
        spec = FleetSpec(services=("blogger",), base_config=SMALL,
                         seeds=(1, 2))
        events = []
        outcome = run_fleet(spec, jobs=2,
                            shard_runner=crash_once_runner,
                            on_event=events.append)
        retried = [e for e in events if isinstance(e, ShardRetried)]
        assert len(retried) == 2
        assert all("crashed" in e.reason for e in retried)
        assert outcome.retries == 2
        assert outcome.signature() == run_fleet(spec).signature()

    def test_hung_worker_times_out_and_retries(self, markers):
        spec = FleetSpec(services=("blogger",), base_config=SMALL,
                         seeds=(1,))
        events = []
        outcome = run_fleet(spec, jobs=2,
                            shard_runner=hang_once_runner,
                            shard_timeout=1.0,
                            on_event=events.append)
        retried = [e for e in events if isinstance(e, ShardRetried)]
        assert len(retried) == 1
        assert "timed out" in retried[0].reason
        assert outcome.signature() == run_fleet(spec).signature()

    def test_retry_budget_exhaustion_fails(self, tmp_path,
                                           monkeypatch):
        # No marker dir entries are ever consumed: every attempt dies.
        monkeypatch.setenv(MARKER_ENV, str(tmp_path))

        spec = FleetSpec(services=("blogger",), base_config=SMALL,
                         seeds=(1, 2))
        with pytest.raises(FleetError, match="failed after"):
            run_fleet(spec, jobs=2, shard_runner=always_crash_runner,
                      max_retries=1)

    def test_campaign_exception_fails_without_retry(self):
        spec = FleetSpec(services=("blogger",), base_config=SMALL,
                         seeds=(1, 2))
        events = []
        with pytest.raises(FleetError,
                           match="deterministic campaign failure"):
            run_fleet(spec, jobs=2, shard_runner=failing_runner,
                      on_event=events.append)
        assert not [e for e in events if isinstance(e, ShardRetried)]


def always_crash_runner(job):
    os._exit(3)


class TestEvents:
    def test_lifecycle_sequence(self):
        spec = FleetSpec(services=("blogger",), base_config=SMALL,
                         seeds=(1, 2))
        events = []
        run_fleet(spec, jobs=2, on_event=events.append)
        assert isinstance(events[0], FleetStarted)
        assert events[0].total_shards == 2
        assert isinstance(events[-1], FleetCompleted)
        assert events[-1].executed == 2
        started = [e for e in events if isinstance(e, ShardStarted)]
        completed = [e for e in events
                     if isinstance(e, ShardCompleted)]
        assert len(started) == len(completed) == 2
        for done in completed:
            assert done.records == 2

    def test_render_event_lines(self):
        spec = FleetSpec(services=("blogger",), base_config=SMALL,
                         seeds=(1,))
        lines = []

        def on_event(event):
            line = render_event(event)
            assert line is not None
            lines.append(line)

        run_fleet(spec, on_event=on_event)
        assert lines[0].startswith("fleet: 1 shards")
        assert any("done: 2 records" in line for line in lines)
        assert lines[-1].startswith("fleet: done")
