"""Tests for the fleet artifact store: round trips, digests, resume.

The store's one job is to make "this shard is done" trustworthy: a
manifest entry counts only while the bytes on disk still hash to the
recorded digest.  These tests cover the manifest write/read round
trip, digest-mismatch detection, and that resume skips exactly the
completed shards.
"""

import json

import pytest

from repro.errors import FleetError
from repro.fleet import ArtifactStore, FleetSpec, execute_shard
from repro.fleet.store import MANIFEST_NAME
from repro.io import record_from_dict, record_to_dict
from repro.methodology import CampaignConfig

SMALL = CampaignConfig(num_tests=2, seed=0, test_types=("test1",))


@pytest.fixture()
def spec():
    return FleetSpec(services=("blogger", "googleplus"),
                     base_config=SMALL, seeds=(1, 2))


def write_one(store, job):
    result = execute_shard(job)
    records = [record_to_dict(r) for r in result.records]
    digest = store.write_shard(job, records)
    return result, records, digest


class TestManifest:
    def test_initialize_creates_layout(self, tmp_path, spec):
        store = ArtifactStore(tmp_path / "store")
        store.initialize(spec)
        assert (tmp_path / "store" / MANIFEST_NAME).is_file()
        assert store.shards_dir.is_dir()
        assert store.manifest["spec_hash"] == spec.spec_hash()
        assert store.completed_shards() == []

    def test_round_trip_through_fresh_handle(self, tmp_path, spec):
        store = ArtifactStore(tmp_path)
        store.initialize(spec)
        job = spec.jobs()[0]
        _, records, digest = write_one(store, job)

        reopened = ArtifactStore(tmp_path)
        assert reopened.manifest["spec_hash"] == spec.spec_hash()
        assert reopened.shard_state(job.shard_id) == "complete"
        assert reopened.completed_shards() == [job.shard_id]
        entry = reopened.manifest["shards"][job.shard_id]
        assert entry["digest"] == digest
        assert entry["records"] == len(records)
        assert entry["service"] == job.service
        assert entry["seed"] == job.seed

    def test_records_round_trip_exactly(self, tmp_path, spec):
        store = ArtifactStore(tmp_path)
        store.initialize(spec)
        job = spec.jobs()[2]
        result, records, _ = write_one(store, job)

        loaded = store.load_shard_records(job.shard_id)
        assert loaded == records
        rebuilt = [record_from_dict(data, job.service)
                   for data in loaded]
        assert [record_to_dict(r) for r in rebuilt] == records
        assert [r.test_id for r in rebuilt] == \
            [r.test_id for r in result.records]

    def test_reinitialize_same_spec_is_idempotent(self, tmp_path,
                                                  spec):
        store = ArtifactStore(tmp_path)
        store.initialize(spec)
        job = spec.jobs()[0]
        write_one(store, job)
        again = ArtifactStore(tmp_path)
        again.initialize(spec)
        assert again.completed_shards() == [job.shard_id]

    def test_initialize_rejects_foreign_spec(self, tmp_path, spec):
        store = ArtifactStore(tmp_path)
        store.initialize(spec)
        other = FleetSpec(services=("blogger",), base_config=SMALL,
                          seeds=(9,))
        with pytest.raises(FleetError, match="belongs to spec"):
            ArtifactStore(tmp_path).initialize(other)

    def test_unreadable_manifest_is_an_error(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(FleetError, match="unreadable"):
            ArtifactStore(tmp_path).manifest

    def test_unknown_store_version_is_an_error(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            json.dumps({"store_version": 99, "spec_hash": "x",
                        "shards": {}})
        )
        with pytest.raises(FleetError, match="store version"):
            ArtifactStore(tmp_path).manifest


class TestDigestValidation:
    def test_tampered_shard_is_corrupt(self, tmp_path, spec):
        store = ArtifactStore(tmp_path)
        store.initialize(spec)
        job = spec.jobs()[0]
        write_one(store, job)
        path = store.shard_path(job.shard_id)
        path.write_text(path.read_text().replace("test1", "test9"))
        assert store.shard_state(job.shard_id) == "corrupt"
        assert store.completed_shards() == []
        with pytest.raises(FleetError, match="corrupt"):
            store.load_shard_records(job.shard_id)

    def test_truncated_shard_is_corrupt(self, tmp_path, spec):
        store = ArtifactStore(tmp_path)
        store.initialize(spec)
        job = spec.jobs()[1]
        write_one(store, job)
        path = store.shard_path(job.shard_id)
        path.write_bytes(path.read_bytes()[:-1])
        assert store.shard_state(job.shard_id) == "corrupt"

    def test_deleted_shard_is_missing(self, tmp_path, spec):
        store = ArtifactStore(tmp_path)
        store.initialize(spec)
        job = spec.jobs()[0]
        write_one(store, job)
        store.shard_path(job.shard_id).unlink()
        assert store.shard_state(job.shard_id) == "missing"

    def test_unwritten_shard_is_missing(self, tmp_path, spec):
        store = ArtifactStore(tmp_path)
        store.initialize(spec)
        assert store.shard_state("0000_nope_s0") == "missing"


class TestResumeBookkeeping:
    def test_resume_skips_exactly_the_completed_shards(self, tmp_path,
                                                       spec):
        from repro.fleet import run_fleet

        store = ArtifactStore(tmp_path)
        store.initialize(spec)
        jobs = spec.jobs()
        done = [jobs[0], jobs[3]]
        for job in done:
            write_one(store, job)

        outcome = run_fleet(spec, out_dir=tmp_path)
        assert set(outcome.skipped) == {j.shard_id for j in done}
        assert set(outcome.executed) == \
            {jobs[1].shard_id, jobs[2].shard_id}
        # And the merged output equals a from-scratch serial run.
        fresh = run_fleet(spec)
        assert outcome.signature() == fresh.signature()
